"""Run-time plan adaptation (paper Section 2.5).

When a channel's destination peer fails (or its throughput collapses),
the channel's **root node** is responsible for repairing the execution:
it re-runs routing and processing *excluding the obsolete peers* and —
following the ubQL policy the paper adopts — **discards** previous
intermediate results and on-going computations rather than entering a
phased cleanup.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReplanBudget:
    """Bounds the run-time adaptation loop of a query root.

    Round ``n`` is the n-th execution attempt (1-based).  The budget
    answers whether another replan round is allowed after attempt ``n``
    failed, and how long to back off before starting it — a failing
    region gets geometrically more breathing room instead of a tight
    replan storm.
    """

    max_rounds: int = 3
    base_delay: float = 0.0
    backoff: float = 2.0
    max_delay: float = 120.0

    def __post_init__(self):
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")

    def exhausted(self, attempts: int) -> bool:
        """True when ``attempts`` executions have used up the budget
        (``max_rounds`` replans on top of the initial attempt)."""
        return attempts > self.max_rounds

    def delay(self, attempts: int) -> float:
        """Back-off delay before the replan following attempt
        ``attempts`` (0 when no base delay is configured)."""
        if not self.base_delay:
            return 0.0
        return min(
            self.base_delay * (self.backoff ** max(0, attempts - 1)), self.max_delay
        )

