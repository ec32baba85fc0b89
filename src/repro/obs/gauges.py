"""Per-peer gauge snapshots: point-in-time operational state.

Counters and histograms say what *happened*; gauges say what *is* —
how many coordinations a peer currently holds, how many channels it
has open, whether it sits quarantined behind a suspicion.  The
snapshot is computed on demand from live peer objects (no background
bookkeeping, so the disabled-observability path pays nothing).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable


def _gauges_for(peer) -> Dict[str, Any]:
    channels = getattr(peer, "channels", None)
    quarantine = getattr(peer, "quarantine", None)
    scheduler = getattr(peer, "scheduler", None)
    return {
        "pending_queries": len(getattr(peer, "_pending", ())),
        "open_channels": len(channels.open_channels()) if channels is not None else 0,
        "quarantined_peers": len(quarantine) if quarantine is not None else 0,
        "known_advertisements": len(getattr(peer, "known_advertisements", ())),
        # workload engine: admission queue depths and scheduler backlog
        "queued_queries": len(getattr(peer, "_admission_queue", ())),
        "queued_route_requests": len(getattr(peer, "_route_queue", ())),
        "scheduler_backlog": scheduler.pending() if scheduler is not None else 0,
    }


def peer_gauges(peers: Iterable) -> Dict[str, Dict[str, Any]]:
    """Gauge snapshot for every peer, keyed by peer id.

    Accepts any iterable of peer objects (simple peers, super-peers,
    clients); attributes a role does not have read as zero.
    """
    return {peer.peer_id: _gauges_for(peer) for peer in peers}


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
