"""Workload specifications and reports.

A :class:`WorkloadSpec` describes *offered load*: a catalog of queries,
how many submissions to make, and the arrival process — open-loop
(seeded Poisson or bursty arrivals, independent of completions, the
regime of the super-peer routing simulations in Ismail & Quafafou) or
closed-loop (N clients that think, submit, wait, repeat).  The driver
turns a spec into scheduled simulator events; the :class:`WorkloadReport`
is what comes back: one :class:`QueryOutcome` per logical query plus
throughput and latency aggregates on the virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Outcome statuses a logical query can terminate with.  ``silent`` is
#: the pathological one — a query that never got *any* reply — and is
#: asserted absent by the scheduler property tests.
STATUSES = ("ok", "partial", "error", "shed", "silent")


@dataclass(frozen=True)
class WorkloadSpec:
    """One serving workload.

    Args:
        queries: Catalog of ``(via_peer, text)`` pairs; submissions
            cycle through it deterministically.
        count: Total logical queries to offer.
        mode: ``"open"`` (arrivals scheduled up front from a seeded
            Poisson process, injected mid-run regardless of progress)
            or ``"closed"`` (``clients`` loops of submit → wait →
            think).
        arrival_rate: Open loop: mean arrivals per unit of virtual time.
        burst_size: Open loop: arrivals per arrival instant (1 = pure
            Poisson; >1 models bursty load).
        clients: How many driver-owned clients submit (both modes; the
            open loop round-robins arrivals over them).
        think_time: Closed loop: virtual time a client waits between
            receiving an answer and submitting its next query.
        seed: Seed for the arrival process (independent of the network
            seed, so the same load can be replayed over different
            networks).
        resubmit_sheds: Re-offer shed queries after their retry-after
            back-off instead of recording them as refused.
        max_shed_retries: Bound on re-offers per logical query.
        limit: Submit every query as top-``limit`` (``LIMIT`` k).  With
            :attr:`~repro.config.PeerConfig.topk_cancel` enabled on the
            coordinators this turns the whole workload into any-k
            early-terminated queries.
    """

    queries: Tuple[Tuple[str, str], ...]
    count: int
    mode: str = "open"
    arrival_rate: float = 0.1
    burst_size: int = 1
    clients: int = 2
    think_time: float = 5.0
    seed: int = 0
    resubmit_sheds: bool = True
    max_shed_retries: int = 3
    limit: Optional[int] = None

    def __post_init__(self):
        if not self.queries:
            raise ValueError("a workload needs at least one query")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.mode not in ("open", "closed"):
            raise ValueError("mode must be 'open' or 'closed'")
        if self.mode == "open" and self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.think_time < 0:
            raise ValueError("think_time must be >= 0")
        if self.max_shed_retries < 0:
            raise ValueError("max_shed_retries must be >= 0")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be >= 1 when set")


@dataclass
class QueryOutcome:
    """The fate of one logical query."""

    index: int
    via: str
    text: str
    client_id: str
    query_id: str
    submitted_at: float
    finished_at: Optional[float] = None
    status: str = "silent"
    rows: Optional[int] = None
    error: Optional[str] = None
    shed_retries: int = 0

    @property
    def latency(self) -> Optional[float]:
        """Virtual time from first submission to the final reply
        (queueing, shed back-offs and resubmissions included)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


@dataclass
class WorkloadReport:
    """Everything a serving run produced, on the virtual clock."""

    outcomes: List[QueryOutcome]
    started_at: float
    finished_at: float
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(self.finished_at - self.started_at, 0.0)

    def by_status(self) -> Dict[str, int]:
        counts = {status: 0 for status in STATUSES}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def completed(self) -> List[QueryOutcome]:
        """Outcomes that carried an answer table (full or partial)."""
        return [o for o in self.outcomes if o.status in ("ok", "partial")]

    def throughput(self) -> float:
        """Completed queries per unit of virtual time."""
        if self.duration <= 0:
            return 0.0
        return len(self.completed()) / self.duration

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p90/p99/max over completed queries' end-to-end latency."""
        observed = sorted(
            o.latency for o in self.completed() if o.latency is not None
        )
        return {
            "p50": _percentile(observed, 0.50),
            "p90": _percentile(observed, 0.90),
            "p99": _percentile(observed, 0.99),
            "max": observed[-1] if observed else 0.0,
        }

    def summary(self) -> Dict[str, float]:
        counts = self.by_status()
        percentiles = self.latency_percentiles()
        return {
            "offered": len(self.outcomes),
            "completed": counts["ok"] + counts["partial"],
            "partial": counts["partial"],
            "errors": counts["error"],
            "shed": counts["shed"],
            "silent": counts["silent"],
            "duration": self.duration,
            "throughput": self.throughput(),
            "latency_p50": percentiles["p50"],
            "latency_p99": percentiles["p99"],
            "latency_max": percentiles["max"],
            "max_inflight": self.metrics.get("max_inflight_queries", 0),
        }

    def render(self) -> str:
        """A one-screen text report."""
        summary = self.summary()
        lines = [
            f"offered    : {summary['offered']} queries "
            f"({summary['completed']} answered, {summary['partial']} partial, "
            f"{summary['errors']} errors, {summary['shed']} shed, "
            f"{summary['silent']} silent)",
            f"duration   : {summary['duration']:.1f} virtual time "
            f"(max {int(summary['max_inflight'])} in flight)",
            f"throughput : {summary['throughput']:.3f} completed/vt",
            f"latency    : p50={summary['latency_p50']:.1f} "
            f"p99={summary['latency_p99']:.1f} max={summary['latency_max']:.1f}",
        ]
        return "\n".join(lines)
