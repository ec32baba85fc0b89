"""The harness both architectures share.

A :class:`Deployment` owns the network, the deployment-wide
:class:`~repro.config.PeerConfig` handed to every node it adds, the
node registries, and the client-side querying surface.  The hybrid and
ad-hoc systems subclass it with their topology only (how peers are
added and how advertisements travel).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ..config import DEFAULT_CONFIG, AdmissionControl, PeerConfig, reconfigure
from ..core.cost import Statistics
from ..errors import PeerError
from ..net.simulator import Network
from ..peers.client import ClientPeer
from ..peers.scheduler import FairScheduler
from ..peers.simple import SimplePeer
from ..peers.super import SuperPeer
from ..rdf.schema import Schema
from ..resilience import HeartbeatEmitter, ResilienceConfig


class Deployment:
    """Builder/harness for one deployment on one network.

    Args:
        schema: The community schema peers commit to by default.
        seed: Network seed.
        default_latency: Link latency of the simulated network.
        statistics: One statistics store shared deployment-wide (made
            on demand when ``config.cost_based``: peers fold advertised
            summaries and observed link costs into it, super-peers do
            the same).
        config: The behaviour of every node this deployment adds.
        observability: Trace and record (``repro.obs``).
        transport: The network's transport (the simulator by default).
    """

    def __init__(
        self,
        schema: Schema,
        seed: int = 0,
        default_latency: float = 1.0,
        statistics: Optional[Statistics] = None,
        config: PeerConfig = DEFAULT_CONFIG,
        observability: bool = True,
        transport=None,
    ):
        self.schema = schema
        self.network = Network(
            seed=seed,
            default_latency=default_latency,
            observability=observability,
            transport=transport,
        )
        if statistics is None and config.cost_based:
            statistics = Statistics()
        self.statistics = statistics
        #: what the next added node is configured with; the ``enable_*``
        #: methods replace it and reconfigure the nodes already there
        self.config = config
        #: routing servers (hybrid only; empty in an ad-hoc deployment)
        self.super_peers: Dict[str, SuperPeer] = {}
        #: schema URI -> responsible super-peer, shared by the backbone
        self._backbone_directory: Dict[str, str] = {}
        self.peers: Dict[str, SimplePeer] = {}
        self.clients: Dict[str, ClientPeer] = {}
        #: liveness beacons per simple peer (hybrid only, once
        #: resilience is on)
        self.heartbeat_emitters: Dict[str, HeartbeatEmitter] = {}
        self._client_counter = itertools.count(1)
        #: set by :meth:`enable_fair_scheduling`; later-added peers
        #: inherit it
        self.fair_quantum: Optional[float] = None

    # ------------------------------------------------------------------
    # configuration after construction
    # ------------------------------------------------------------------
    def nodes(self) -> List:
        """Every node added so far: super-peers, simple peers, clients."""
        return [
            *self.super_peers.values(), *self.peers.values(), *self.clients.values()
        ]

    def enable_resilience(
        self, config: Optional[ResilienceConfig] = None
    ) -> ResilienceConfig:
        """Turn the resilience layer on deployment-wide: channel and
        routing retries, client resubmits, quarantine-filtered routing,
        partial results, the ad-hoc delegation deadline — and, in the
        hybrid architecture, heartbeats into a failure detector per
        super-peer (drive it with
        :func:`~repro.resilience.harness.heartbeat_round`)."""
        config = config or ResilienceConfig.default()
        for holder in (self, *self.nodes()):
            reconfigure(holder, resilience=config)
        for node in (*self.super_peers.values(), *self.peers.values()):
            self._start_liveness(node)
        return config

    def _start_liveness(self, node) -> None:
        """Liveness traffic for one node once resilience is on.  The
        ad-hoc architecture has no routing servers to run a failure
        detector on; its suspicion signal comes from channel timeouts
        and the delegation deadline instead."""

    def enable_admission(
        self, control: Optional[AdmissionControl] = None
    ) -> AdmissionControl:
        """Bound what the deployment accepts: coordinators park overflow
        queries and shed beyond their queue with a retry-after hint,
        super-peers pace their routing service and answer saturation
        with RouteBusy, and per-query deadlines (when set) cancel
        stragglers."""
        control = control or AdmissionControl()
        for holder in (self, *self.nodes()):
            reconfigure(holder, admission=control)
        return control

    def enable_fair_scheduling(self, quantum: float = 0.25) -> None:
        """Give every simple peer a fair per-query scheduler: local work
        units (subplan starts, scans, channel completions) interleave
        round-robin across in-flight queries, one per ``quantum`` of
        virtual time (a slice of peer CPU)."""
        self.fair_quantum = quantum
        for peer in self.peers.values():
            if peer.scheduler is None:
                peer.install_scheduler(FairScheduler(self.network, quantum))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _admit_peer(self, peer: SimplePeer) -> None:
        """Join a freshly built simple peer and register it."""
        peer.join(self.network)
        self.peers[peer.peer_id] = peer
        if self.fair_quantum is not None:
            peer.install_scheduler(FairScheduler(self.network, self.fair_quantum))
        self._start_liveness(peer)

    def add_client(self, peer_id: Optional[str] = None) -> ClientPeer:
        peer_id = peer_id or f"client{next(self._client_counter)}"
        client = ClientPeer(peer_id, config=self.config)
        client.join(self.network)
        self.clients[peer_id] = client
        return client

    def _default_client(self) -> ClientPeer:
        """The first registered client, made on first use."""
        return next(iter(self.clients.values())) if self.clients else self.add_client()

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def submit(self, via_peer: str, text: str, client: Optional[ClientPeer] = None,
               max_peers=None, limit=None, order_by=None, descending=False,
               trace: bool = False) -> str:
        """Submit a query through a simple peer; returns the query id.

        Call :meth:`run` afterwards to drive the event loop.  Accepts
        the same ``client``, result-shaping and ``trace`` keywords as
        :meth:`query`.
        """
        client = client or self._default_client()
        return client.submit(
            via_peer, text, max_peers=max_peers, limit=limit,
            order_by=order_by, descending=descending, trace=trace,
        )

    def run(self, max_events: int = 1_000_000) -> int:
        return self.network.run(max_events=max_events)

    def query(self, via_peer: str, text: str, max_peers=None, limit=None,
              order_by=None, descending=False,
              client: Optional[ClientPeer] = None, trace: bool = False):
        """Submit, run to quiescence, and return the result table.

        Args:
            via_peer: The coordinating simple peer.
            text: RQL source text.
            max_peers: Per-pattern broadcast bound (Section 5).
            limit: Top-N bound on the answer.
            client: Submit through this client instead of the first
                registered one (same keyword :meth:`submit` honours).
            trace: Keep the query's span tree even if it is not one of
                the sampled queries (``repro.obs.tracer.sampled``).

        Raises:
            PeerError: When the query failed (carries the reason).
        """
        client = client or self._default_client()
        query_id = self.submit(
            via_peer, text, client, max_peers=max_peers, limit=limit,
            order_by=order_by, descending=descending, trace=trace,
        )
        self.run()
        result = client.result(query_id)
        if result is None:
            raise PeerError(f"query {query_id} produced no reply")
        if result.error is not None:
            raise PeerError(f"query {query_id} failed: {result.error}")
        return result.table
