"""Per-peer gauge snapshots: point-in-time operational state.

Counters and histograms say what *happened*; gauges say what *is* —
how many coordinations a peer currently holds, how many channels it
has open, whether it sits quarantined behind a suspicion.  The
snapshot is computed on demand from live peer objects (no background
bookkeeping, so the disabled-observability path pays nothing).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable


#: what a node that declares no load reads as
IDLE = {
    "pending_queries": 0,
    "open_channels": 0,
    "quarantined_peers": 0,
    "known_advertisements": 0,
    # workload engine: admission queue depths and scheduler backlog
    "queued_queries": 0,
    "queued_route_requests": 0,
    "scheduler_backlog": 0,
}


def node_load(node) -> Dict[str, Any]:
    """``node.load()`` — every :class:`~repro.peers.base.Peer` declares
    one; a foreign node registered on the network without it is idle."""
    load = getattr(node, "load", None)
    return load() if load is not None else dict(IDLE)


def peer_gauges(peers: Iterable) -> Dict[str, Dict[str, Any]]:
    """Gauge snapshot for every peer, keyed by peer id.

    Accepts any iterable of peer objects (simple peers, super-peers,
    clients); what a role does not have reads as zero.
    """
    return {peer.peer_id: node_load(peer) for peer in peers}


def system_gauges(system) -> Dict[str, Dict[str, Any]]:
    """Gauges for every peer of a deployed system (hybrid or ad-hoc:
    super-peers, simple peers and clients alike), plus the network's
    own state under the pseudo-peer id ``_network``."""
    gauges = peer_gauges(system.nodes())
    network = system.network
    gauges["_network"] = {
        "virtual_time": network.now,
        "pending_events": network.pending_events(),
        "down_peers": len(network._down),
    }
    return gauges
