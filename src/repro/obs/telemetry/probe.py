"""In-process telemetry snapshots: the sim-side twin of the endpoints.

A :class:`TelemetryProbe` answers the same three questions the live
HTTP endpoints serve — *metrics*, *health*, *recent traces* — directly
from in-process objects, so a simulated run can be inspected with the
same payload shapes a live scrape returns.  Difftests lean on this: the
sim probe's exposition and a live node's ``/metrics`` body go through
one parser and one rollup pipeline.

The probe is strictly pull-based.  It never schedules simulator
events, never mutates metrics, and reads everything on demand — a
probed run stays bit-identical to an unprobed one.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..collect import validate_trace
from ..exposition import render_prometheus
from ..gauges import node_load, peer_gauges
from .sampler import TelemetrySample, sample_metricset

#: schema tags of the JSON payloads (shared by live endpoints)
HEALTH_SCHEMA = "repro.obs/healthz-v1"
TRACEZ_SCHEMA = "repro.obs/tracez-v1"


class TelemetryProbe:
    """Telemetry snapshots of one process's peers.

    Args:
        network: The :class:`~repro.net.simulator.Network` whose
            metrics/collector back the snapshots.
        peers: The peer objects living in this process (one for a live
            node; the whole population for an in-sim system).
        node_id: Identity reported by :meth:`healthz` (defaults to the
            sole peer's id, or ``"_system"``).
        role: ``"super"`` / ``"peer"`` / ``"system"`` for healthz.
    """

    def __init__(
        self,
        network,
        peers: Iterable = (),
        node_id: Optional[str] = None,
        role: Optional[str] = None,
    ):
        self.network = network
        self.peers = list(peers)
        if node_id is None:
            node_id = self.peers[0].peer_id if len(self.peers) == 1 else "_system"
        self.node_id = node_id
        self.role = role or ("system" if len(self.peers) != 1 else "peer")

    # ------------------------------------------------------------------
    # /metrics
    # ------------------------------------------------------------------
    def metrics_text(self, const_labels: Optional[Dict[str, Any]] = None) -> str:
        """The Prometheus exposition (same renderer live nodes use)."""
        return render_prometheus(
            self.network.metrics, peer_gauges(self.peers), const_labels=const_labels
        )

    # ------------------------------------------------------------------
    # /healthz
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """Liveness + membership state, JSON-ready."""
        metrics = self.network.metrics
        quarantined: List[str] = sorted(
            {
                suspect
                for peer in self.peers
                if hasattr(peer, "sons")  # a ClientPeer keeps no registry
                for suspect in peer.sons.quarantine.peers
            }
        )
        incarnations = {peer.peer_id: peer.channels.epoch for peer in self.peers}
        advertisements = max(
            (node_load(peer)["known_advertisements"] for peer in self.peers),
            default=0,
        )
        health = {
            "schema": HEALTH_SCHEMA,
            "status": "ok",
            "node_id": self.node_id,
            "role": self.role,
            "t": self.network.now,
            "peers_hosted": len(self.peers),
            "inflight_queries": metrics.inflight_queries,
            "queries_finished": metrics.latency_histogram.count,
            "queries_shed": metrics.queries_shed,
            "quarantined": quarantined,
            "incarnations": incarnations,
            "known_advertisements": advertisements,
            "recoveries": metrics.recoveries,
            "rejoins": metrics.rejoins,
            "transport": self.network.transport.kind,
        }
        health.update(self.network.transport.diagnostics_extra())
        health["down_peers"] = sorted(self.network._down)
        return health

    # ------------------------------------------------------------------
    # /tracez
    # ------------------------------------------------------------------
    def tracez(self, limit: int = 10) -> Dict[str, Any]:
        """Summaries of the most recently collected traces."""
        collector = self.network.trace_collector  # None with tracing off
        trace_ids = collector.trace_ids() if collector is not None else []
        traces: List[Dict[str, Any]] = []
        for trace_id in trace_ids[-limit:]:
            spans = collector.spans(trace_id)
            start = min(span.start for span in spans)
            ends = [span.end for span in spans if span.end is not None]
            traces.append(
                {
                    "trace_id": trace_id,
                    "root": spans[0].name if spans else "?",
                    "spans": len(spans),
                    "start": start,
                    "duration": (max(ends) - start) if ends else None,
                    "problems": validate_trace(spans),
                }
            )
        return {
            "schema": TRACEZ_SCHEMA,
            "node_id": self.node_id,
            "collected": len(trace_ids),
            "traces": traces,
        }

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self, gauges: Optional[Dict[str, Any]] = None) -> TelemetrySample:
        """One rollup-ready sample at the network's current time."""
        return sample_metricset(self.network.metrics, self.network.now, gauges)
