"""Fair per-query scheduling of local work.

The execution engine is continuation-based: a peer's contribution to a
query is a series of small work units — start a shipped subplan,
evaluate a scan, combine a channel's gathered inputs.  Without a
scheduler every unit runs the instant its message arrives, so one
expensive query monopolises a peer while cheap concurrent queries sit
behind it in wall-clock (virtual-time) terms.

:class:`FairScheduler` round-robins those units *per query*: each unit
is enqueued under its query id, and one unit is executed per
``quantum`` of virtual time, cycling over the queries that have work.
A query with a hundred pending units cannot starve a query with one.
Scheduling order is a pure function of enqueue order, so seeded runs
stay bit-identical.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict, deque
from typing import Callable, Deque


class FairScheduler:
    """Round-robin work queues keyed by query id, driven by the
    simulator clock.

    Args:
        network: The simulator whose ``call_later`` paces the pump,
            held weakly (it owns the peer that owns this scheduler).
        quantum: Virtual time charged per executed work unit (models a
            slice of peer CPU).  ``0.0`` keeps all units at the same
            timestamp but still interleaves them one event apiece.
    """

    def __init__(self, network, quantum: float = 0.25):
        if quantum < 0:
            raise ValueError("quantum must be >= 0")
        self.network = weakref.proxy(network)
        self.quantum = quantum
        self._queues: "OrderedDict[str, Deque[Callable[[], None]]]" = OrderedDict()
        self._pumping = False
        self.backlog = 0
        self.max_backlog = 0
        self.executed = 0

    def submit(self, key: str, unit: Callable[[], None]) -> None:
        """Enqueue one work unit under ``key`` (normally a query id)."""
        self._queues.setdefault(key, deque()).append(unit)
        self.backlog += 1
        if self.backlog > self.max_backlog:
            self.max_backlog = self.backlog
        if not self._pumping:
            self._pumping = True
            self.network.call_later(self.quantum, self._pump)

    def _pump(self) -> None:
        if not self._queues:
            self._pumping = False
            return
        key, queue = next(iter(self._queues.items()))
        unit = queue.popleft()
        if queue:
            self._queues.move_to_end(key)
        else:
            del self._queues[key]
        self.backlog -= 1
        self.executed += 1
        unit()
        # the unit may have enqueued more work; keep pumping while any
        # queue is non-empty, one unit per quantum
        if self._queues:
            self.network.call_later(self.quantum, self._pump)
        else:
            self._pumping = False

    def pending(self) -> int:
        return self.backlog

    def __repr__(self) -> str:
        return (
            f"FairScheduler(queries={len(self._queues)}, backlog={self.backlog}, "
            f"quantum={self.quantum})"
        )
