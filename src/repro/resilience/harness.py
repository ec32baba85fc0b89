"""Chaos harness: drive a deployed system through a faulty network.

:func:`run_chaos` plays a query workload as a
:class:`~repro.scenario.Scenario` against a
:class:`~repro.systems.hybrid.HybridSystem` or
:class:`~repro.systems.adhoc.AdhocSystem` whose network runs under a
:class:`~repro.resilience.faults.FaultPlan`, with two heartbeat /
failure-detector rounds before each query and crash or recovery events
armed on the clock, and classifies every answer (full,
coverage-annotated partial, error, no reply) with :func:`classify`.
The resulting :class:`PlayReport` — the one report of any played
scenario, a serving run's too — carries the metric snapshot and a
:meth:`digest <PlayReport.digest>`: two runs with the same seeds must
produce bit-identical digests, which is the replay invariant the
chaos-smoke CI job asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .faults import FaultPlan

#: (via_peer, rql_text) pairs.
Workload = Sequence[Tuple[str, str]]


#: every status a query terminates with; ``shed`` is a refusal by
#: admission control after its re-offers ran out
STATUSES = ("full", "partial", "error", "shed", "no-reply")


@dataclass(frozen=True)
class QueryOutcome:
    """One query's fate: how it was answered and when."""

    query_id: str
    via_peer: str
    status: str  # one of STATUSES
    rows: Optional[int] = None
    error: Optional[str] = None
    coverage: Optional[str] = None
    #: the client-side QueryResult classified (None: no reply)
    result: Optional[object] = field(default=None, compare=False, repr=False)
    #: virtual time (live: the transport clock's) of the first
    #: submission and of the final reply
    submitted_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def answered(self) -> bool:
        """Full answer or an honest coverage-annotated partial one."""
        return self.status in ("full", "partial")

    @property
    def latency(self) -> Optional[float]:
        """From the first submission to the final reply (queueing, shed
        back-offs and re-offers included)."""
        if self.finished_at is None or self.submitted_at is None:
            return None
        return self.finished_at - self.submitted_at


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile of an ascending sequence (0 if empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


@dataclass
class PlayReport:
    """What playing one scenario produced: the outcomes in scenario
    order, and the metrics of the network it was played through at the
    end."""

    outcomes: List[QueryOutcome]
    snapshot: tuple  # MetricSnapshot at the end of the run
    events: int  # simulator events processed
    #: most queries in flight at once; None where ``network`` coordinates
    #: none (a live launcher: its queries are metered in the node processes)
    max_inflight: Optional[int] = 0

    @classmethod
    def collect(cls, outcomes: Iterable[QueryOutcome], network) -> "PlayReport":
        """Exhaust ``outcomes`` (a :func:`~repro.scenario.play`) on
        ``network`` and report."""
        before = network.events_processed
        outcomes = list(outcomes)
        return cls(outcomes, network.metrics.snapshot(),
                   network.events_processed - before,
                   network.metrics.max_inflight_queries
                   if network.transport.kind == "sim" else None)

    def count(self, status: str) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == status)

    def by_status(self) -> Dict[str, int]:
        return {status: self.count(status) for status in STATUSES}

    @property
    def answered(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.answered)

    @property
    def answer_ratio(self) -> float:
        return self.answered / len(self.outcomes) if self.outcomes else 1.0

    @property
    def duration(self) -> float:
        """From the first submission to the last reply (disarmed timers
        that quiesce later do not count)."""
        submitted = [o.submitted_at for o in self.outcomes
                     if o.submitted_at is not None]
        finished = [o.finished_at for o in self.outcomes
                    if o.finished_at is not None]
        return max(max(finished) - min(submitted), 0.0) if finished else 0.0

    def throughput(self) -> float:
        """Answered queries per unit of virtual time."""
        return self.answered / self.duration if self.duration > 0 else 0.0

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p99/max over the answered queries' latency."""
        observed = sorted(o.latency for o in self.outcomes
                          if o.answered and o.latency is not None)
        return {
            "p50": percentile(observed, 0.50),
            "p99": percentile(observed, 0.99),
            "max": observed[-1] if observed else 0.0,
        }

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

    def render(self) -> str:
        """A one-screen serving report."""
        counts = self.by_status()
        latency = self.latency_percentiles()
        return "\n".join([
            f"offered    : {len(self.outcomes)} queries ({self.answered} "
            f"answered, {counts['partial']} partial, {counts['error']} errors, "
            f"{counts['shed']} shed, {counts['no-reply']} no-reply)",
            f"duration   : {self.duration:.1f} virtual time"
            + ("" if self.max_inflight is None
               else f" (max {self.max_inflight} in flight)"),
            f"throughput : {self.throughput():.3f} completed/vt",
            f"latency    : p50={latency['p50']:.1f} "
            f"p99={latency['p99']:.1f} max={latency['max']:.1f}",
        ])


def heartbeat_round(system) -> None:
    """Drive one round of liveness traffic: every live peer's emitter
    beats, every super-peer failure detector polls.  A no-op for
    systems without either (plain ad-hoc deployments)."""
    for emitter in system.heartbeat_emitters.values():
        emitter.emit_once()
    for super_peer in system.super_peers.values():
        if super_peer.failure_detector is not None:
            super_peer.failure_detector.poll()


def classify(result, via_peer: str, query_id: str, shed: bool = False,
             submitted_at: Optional[float] = None,
             finished_at: Optional[float] = None) -> QueryOutcome:
    """Map a client-side :class:`~repro.peers.protocol.QueryResult`
    (or its absence) to a :class:`QueryOutcome`; ``shed``: the result is
    admission control's refusal."""
    times = dict(submitted_at=submitted_at, finished_at=finished_at)
    if result is None:
        return QueryOutcome(query_id, via_peer, "no-reply", **times)
    if result.error is not None:
        return QueryOutcome(query_id, via_peer, "shed" if shed else "error",
                            error=result.error, result=result, **times)
    partial = result.is_partial
    return QueryOutcome(
        query_id,
        via_peer,
        "partial" if partial else "full",
        rows=len(result.table),
        coverage=result.coverage.describe() if partial else None,
        result=result,
        **times,
    )


def run_chaos(
    system,
    workload: Workload,
    plan: Optional[FaultPlan] = None,
    events: Iterable = (),
) -> PlayReport:
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
    if plan is not None:
        system.network.install_faults(plan)
    return PlayReport.collect(playing, system.network)
