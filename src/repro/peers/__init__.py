"""Peer roles: client, simple and super peers, and the one store of
routing knowledge (:class:`~repro.peers.son.SONRegistry`) the last two
each hold."""

from .base import Peer, PeerBase
from .client import ClientPeer
from .coordinator import PendingQuery, QueryCoordinator
from .protocol import (
    Advertise,
    AdvertisementReply,
    AdvertisementRequest,
    PartialPlan,
    QueryResult,
    QuerySubmit,
    RouteReply,
    RouteRequest,
)
from .simple import SimplePeer
from .son import SONRegistry
from .super import SuperPeer

__all__ = [
    "Advertise",
    "AdvertisementReply",
    "AdvertisementRequest",
    "ClientPeer",
    "PartialPlan",
    "Peer",
    "PeerBase",
    "PendingQuery",
    "QueryCoordinator",
    "QueryResult",
    "QuerySubmit",
    "RouteReply",
    "RouteRequest",
    "SONRegistry",
    "SimplePeer",
    "SuperPeer",
]
