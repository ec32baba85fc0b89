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
from typing import Sequence


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


class ChannelMonitor:
    """Throughput watchdog for a running channel (Section 2.5).

    The optimiser "may alter a running query plan by observing the
    throughput of a certain channel", measured in tuples.  The monitor
    tracks per-channel tuple counts against expectations and flags
    channels whose observed throughput falls below a fraction of the
    expected rate.
    """

    def __init__(self, minimum_ratio: float = 0.1):
        if not 0.0 < minimum_ratio <= 1.0:
            raise ValueError("minimum_ratio must be in (0, 1]")
        self.minimum_ratio = minimum_ratio
        self._expected: dict = {}
        self._observed: dict = {}

    def expect(self, channel_id: str, tuples: float) -> None:
        """Record the expected tuple volume of a channel."""
        self._expected[channel_id] = max(tuples, 1.0)
        self._observed.setdefault(channel_id, 0.0)

    def observe(self, channel_id: str, tuples: int) -> None:
        """Record tuples received over a channel."""
        self._observed[channel_id] = self._observed.get(channel_id, 0.0) + tuples

    def throughput_ratio(self, channel_id: str) -> float:
        expected = self._expected.get(channel_id)
        if not expected:
            return 1.0
        return self._observed.get(channel_id, 0.0) / expected

    def underperforming(self) -> Sequence[str]:
        """Channels whose observed/expected ratio is below threshold."""
        return sorted(
            cid
            for cid in self._expected
            if self.throughput_ratio(cid) < self.minimum_ratio
        )
