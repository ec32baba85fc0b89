"""Chaos harness: drive a deployed system through a faulty network.

:func:`run_chaos` plays a query workload as a
:class:`~repro.scenario.Scenario` against a
:class:`~repro.systems.hybrid.HybridSystem` or
:class:`~repro.systems.adhoc.AdhocSystem` whose network runs under a
:class:`~repro.resilience.faults.FaultPlan`, with two heartbeat /
failure-detector rounds before each query and crash or recovery events
armed on the clock, and classifies every answer (full,
coverage-annotated partial, error, no reply) with :func:`classify`.
The resulting :class:`ChaosReport` carries the metric snapshot and a :meth:`digest
<ChaosReport.digest>` — two runs with the same seeds must produce
bit-identical digests, which is the replay invariant the chaos-smoke
CI job asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

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
    #: the client-side QueryResult classified (None: no reply)
    result: Optional[object] = field(default=None, compare=False, repr=False)

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
        return QueryOutcome(
            query_id, via_peer, "error", error=result.error, result=result
        )
    partial = result.is_partial
    return QueryOutcome(
        query_id,
        via_peer,
        "partial" if partial else "full",
        rows=len(result.table),
        coverage=result.coverage.describe() if partial else None,
        result=result,
    )


def run_chaos(
    system,
    workload: Workload,
    plan: Optional[FaultPlan] = None,
    events: Iterable = (),
) -> ChaosReport:
    """Run ``workload`` under ``plan`` and classify every answer.

    The caller configures resilience first (``system.enable_resilience``)
    — the harness installs the fault plan and plays one scenario: the
    extra ``events`` (crashes and restarts armed ``at`` virtual times),
    then per query two liveness rounds and the query, run to quiescence
    before the next, and two more rounds to settle stragglers (late
    retransmits, recovery events).  A scenario that cannot happen
    raises :class:`ValueError` before anything runs.
    """
    # late import: the scenario module imports this one
    from ..scenario import Heartbeat, Query, Scenario, play

    rounds = (Heartbeat(), Heartbeat())
    steps = [*events]
    for via_peer, text in workload:
        steps += [*rounds, Query(via_peer, text)]
    client = system.add_client("chaos-client")
    playing = play(Scenario((*steps, *rounds)), system, client=client)
    network = system.network
    if plan is not None:
        network.install_faults(plan)
    before = network.events_processed
    outcomes = list(playing)
    return ChaosReport(
        outcomes, network.metrics.snapshot(), network.events_processed - before
    )
