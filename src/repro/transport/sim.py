"""The discrete-event transport: the simulator's original engine.

This is the event queue and virtual clock extracted verbatim from
``Network`` — same ``(time, seq, action)`` heap ordering, same
monotonic sequence counter — so every same-seed run is bit-identical to
the pre-seam behaviour: message order, metrics and traces do not move.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from ..errors import EventBudgetExhausted, NetworkError
from .base import Transport


class SimTransport(Transport):
    """Single-threaded heapq event loop on a virtual clock."""

    kind = "sim"

    def __init__(self):
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        heapq.heappush(self._queue, (self._now + delay, next(self._sequence), action))

    def routes(self, dst: str) -> bool:
        return False  # everything in-sim lives in one process

    def transmit_remote(self, message) -> None:
        raise NetworkError(f"unknown destination {message.dst}")

    def run(self, max_events: int = 1_000_000, until: Optional[float] = None) -> int:
        """Process events in time order; returns the number processed.

        Raises:
            EventBudgetExhausted: If ``max_events`` is exhausted (a
                protocol loop that never quiesces is a bug, not a
                workload).  The exception's message and ``diagnostics``
                attribute describe what was still in flight.
        """
        processed = 0
        while self._queue:
            time, _, action = self._queue[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._queue)
            self._now = time
            action()
            processed += 1
            if processed >= max_events:
                diagnostics = self._diagnostics()
                # late import: net.simulator imports this module
                from ..net.simulator import format_diagnostics

                raise EventBudgetExhausted(
                    f"event budget exhausted ({max_events} events)\n"
                    + format_diagnostics(diagnostics),
                    diagnostics,
                )
        return processed

    def _diagnostics(self) -> dict:
        if self.network is not None:
            return self.network.diagnostics()
        return {
            "now": self._now,
            "pending_events": len(self._queue),
            "oldest_pending_event_at": self._queue[0][0] if self._queue else None,
            "inflight_queries": [],
            "peers": {},
            "down_peers": [],
            "transport": self.kind,
        }

    def pending_events(self) -> int:
        return len(self._queue)

    def oldest_pending_at(self) -> Optional[float]:
        return self._queue[0][0] if self._queue else None
