"""Chaos harness: drive a deployed system through a faulty network.

:func:`run_chaos` submits a query workload against a
:class:`~repro.systems.hybrid.HybridSystem` or
:class:`~repro.systems.adhoc.AdhocSystem` whose network runs under a
:class:`~repro.resilience.faults.FaultPlan`, interleaving heartbeat /
failure-detector rounds with the queries, and classifies every answer
(full, coverage-annotated partial, error, no reply).  The resulting
:class:`ChaosReport` carries the metric snapshot and a :meth:`digest
<ChaosReport.digest>` — two runs with the same seeds must produce
bit-identical digests, which is the replay invariant the chaos-smoke
CI job asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .faults import FaultPlan

#: (via_peer, rql_text) pairs.
Workload = Sequence[Tuple[str, str]]


@dataclass(frozen=True)
class QueryOutcome:
    """One workload query's fate under chaos."""

    query_id: str
    via_peer: str
    status: str  # "full" | "partial" | "error" | "no-reply"
    rows: Optional[int] = None
    error: Optional[str] = None
    coverage: Optional[str] = None

    @property
    def answered(self) -> bool:
        """Full answer or an honest coverage-annotated partial one."""
        return self.status in ("full", "partial")


@dataclass
class ChaosReport:
    """Outcome of one chaos run."""

    outcomes: List[QueryOutcome]
    snapshot: tuple  # MetricSnapshot at the end of the run
    events: int  # simulator events processed

    def count(self, status: str) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == status)

    @property
    def answered(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.answered)

    @property
    def answer_ratio(self) -> float:
        return self.answered / len(self.outcomes) if self.outcomes else 1.0

    def digest(self) -> str:
        """A replay fingerprint: per-query fates plus every metric
        counter.  Purely a function of the seeds — identical across
        same-seed runs, or the simulation lost determinism."""
        lines = [
            f"{o.query_id} {o.status} rows={o.rows} cov={o.coverage or '-'}"
            for o in self.outcomes
        ]
        lines.append("metrics " + " ".join(repr(v) for v in self.snapshot))
        lines.append(f"events {self.events}")
        return "\n".join(lines)

    def summary(self) -> str:
        return (
            f"{len(self.outcomes)} queries: {self.count('full')} full, "
            f"{self.count('partial')} partial, {self.count('error')} error, "
            f"{self.count('no-reply')} no-reply "
            f"({self.answer_ratio:.0%} answered)"
        )


def heartbeat_round(system) -> None:
    """Drive one round of liveness traffic: every live peer's emitter
    beats, every super-peer failure detector polls.  A no-op for
    systems without either (plain ad-hoc deployments)."""
    for emitter in system.heartbeat_emitters.values():
        emitter.emit_once()
    for super_peer in system.super_peers.values():
        if super_peer.failure_detector is not None:
            super_peer.failure_detector.poll()


def classify(result, via_peer: str, query_id: str) -> QueryOutcome:
    """Map a client-side :class:`~repro.peers.protocol.QueryResult`
    (or its absence) to a :class:`QueryOutcome`."""
    if result is None:
        return QueryOutcome(query_id, via_peer, "no-reply")
    if result.error is not None:
        return QueryOutcome(query_id, via_peer, "error", error=result.error)
    coverage = result.coverage
    if coverage is not None and not coverage.is_complete:
        return QueryOutcome(
            query_id,
            via_peer,
            "partial",
            rows=len(result.table),
            coverage=coverage.describe(),
        )
    return QueryOutcome(query_id, via_peer, "full", rows=len(result.table))


def run_chaos(
    system,
    workload: Workload,
    plan: Optional[FaultPlan] = None,
    heartbeats_per_query: int = 2,
    max_events: int = 1_000_000,
) -> ChaosReport:
    """Run ``workload`` under ``plan`` and classify every answer.

    The caller configures resilience first (``system.enable_resilience``)
    — the harness only installs the fault plan, drives the event loop
    and liveness rounds, and reads the client's results back.  Queries
    are submitted sequentially (each runs to quiescence before the
    next), so crash/recovery schedules in the plan interleave with the
    stream at their virtual times.
    """
    network = system.network
    if plan is not None:
        network.install_faults(plan)
    client = system.add_client("chaos-client")
    events = 0
    submitted: List[Tuple[str, str]] = []
    for via_peer, text in workload:
        for _ in range(heartbeats_per_query):
            heartbeat_round(system)
        query_id = client.submit(via_peer, text)
        submitted.append((query_id, via_peer))
        events += network.run(max_events=max_events)
    # settle stragglers (late retransmits, recovery events)
    for _ in range(heartbeats_per_query):
        heartbeat_round(system)
    events += network.run(max_events=max_events)
    outcomes = [
        classify(client.result(query_id), via_peer, query_id)
        for query_id, via_peer in submitted
    ]
    return ChaosReport(outcomes, system.network.metrics.snapshot(), events)
