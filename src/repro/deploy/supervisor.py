"""Supervised crash recovery for live deployments.

``python -m repro run --live --supervise`` arms a :class:`Supervisor` over
the cluster's child processes: whenever one is found dead that was not
*expected* to be down (graceful shutdown, an operator-ordered kill with
a scheduled manual restart), it is respawned through the launcher's
restart path — the fresh process recovers from its durable state
directory and re-advertises with the ``rejoin`` flag.

Two guards keep a crash-looping node from taking the run down with it:

- **exponential backoff** between successive restarts of the same node
  (:class:`RestartBackoff`), so a node that dies instantly on boot is
  retried at widening intervals instead of as fast as the loop spins;
- a **restart-storm circuit breaker**: more than ``max_restarts``
  restarts of one node inside ``window`` seconds trips the node into
  the ``tripped`` set and the supervisor gives up on it (the rest of
  the cluster keeps serving, degraded).

The supervisor is deliberately poll-driven (:meth:`Supervisor.tick`
between queries) rather than thread-driven: restarts happen at known
points of the workload loop, which keeps live runs reproducible enough
to compare against the simulator.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Set


class RestartBackoff:
    """Exponential restart delays: ``base * factor**attempt``, capped."""

    def __init__(self, base: float = 0.5, factor: float = 2.0, max_delay: float = 8.0):
        if base < 0 or factor < 1 or max_delay < base:
            raise ValueError("backoff wants base >= 0, factor >= 1, max >= base")
        self.base = base
        self.factor = factor
        self.max_delay = max_delay

    def delay(self, attempt: int) -> float:
        return min(self.max_delay, self.base * self.factor ** max(0, attempt))


class Supervisor:
    """Restart dead child processes, with backoff and a storm breaker.

    Args:
        processes: A live mapping ``node_id -> process`` (anything with
            ``poll() -> Optional[int]``); the launcher's own dict, so
            respawns the supervisor triggers are observed on the next
            tick.
        respawn: ``respawn(node_id)`` brings the node back (the
            launcher's ``restart_peer``).
        backoff: Restart delay policy (default :class:`RestartBackoff`).
        max_restarts: Storm threshold per node within ``window``.
        window: Seconds of restart history the breaker considers.
        clock: Injectable monotonic clock (tests pass a fake).
        on_restart: Optional ``on_restart(node_id, attempt)`` fired
            after each successful respawn (the launcher writes a
            diagnostic bundle from it).
        on_trip: Optional ``on_trip(node_id, restarts)`` fired once when
            the storm breaker gives up on a node.
    """

    def __init__(
        self,
        processes: Mapping[str, object],
        respawn: Callable[[str], None],
        backoff: Optional[RestartBackoff] = None,
        max_restarts: int = 5,
        window: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
        on_restart: Optional[Callable[[str, int], None]] = None,
        on_trip: Optional[Callable[[str, int], None]] = None,
    ):
        self.processes = processes
        self.respawn = respawn
        self.backoff = backoff or RestartBackoff()
        self.max_restarts = max_restarts
        self.window = window
        self.clock = clock
        self.on_restart = on_restart
        self.on_trip = on_trip
        #: nodes whose death is ordered (graceful stop, manual restart
        #: pending) — the supervisor leaves them alone
        self.expected_down: Set[str] = set()
        #: nodes the storm breaker gave up on
        self.tripped: Set[str] = set()
        self.restart_totals: Dict[str, int] = {}
        self._attempts: Dict[str, int] = {}
        self._history: Dict[str, List[float]] = {}
        self._due: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # operator intent
    # ------------------------------------------------------------------
    def expect_down(self, node_id: str) -> None:
        """Mark a death as ordered; :meth:`tick` won't restart it."""
        self.expected_down.add(node_id)

    def resume(self, node_id: str) -> None:
        """The node is (manually) back under supervision."""
        self.expected_down.discard(node_id)
        self._due.pop(node_id, None)

    # ------------------------------------------------------------------
    # the supervision loop
    # ------------------------------------------------------------------
    def tick(self) -> List[str]:
        """One supervision pass; returns the node ids restarted now."""
        restarted: List[str] = []
        now = self.clock()
        for node_id, process in list(self.processes.items()):
            if process.poll() is None:
                # alive; once quiet for a full window, forgive history
                history = self._history.get(node_id)
                if history and now - history[-1] >= self.window:
                    self._history[node_id] = []
                    self._attempts[node_id] = 0
                self._due.pop(node_id, None)
                continue
            if node_id in self.expected_down or node_id in self.tripped:
                continue
            history = self._history.setdefault(node_id, [])
            history[:] = [stamp for stamp in history if now - stamp < self.window]
            if len(history) >= self.max_restarts:
                self.tripped.add(node_id)
                self._due.pop(node_id, None)
                if self.on_trip is not None:
                    self.on_trip(node_id, self.restart_totals.get(node_id, 0))
                continue
            due = self._due.get(node_id)
            if due is None:
                # first sighting of this death: schedule the restart
                self._due[node_id] = now + self.backoff.delay(
                    self._attempts.get(node_id, 0)
                )
                continue
            if now < due:
                continue
            self.respawn(node_id)
            history.append(now)
            self._attempts[node_id] = self._attempts.get(node_id, 0) + 1
            self.restart_totals[node_id] = self.restart_totals.get(node_id, 0) + 1
            self._due.pop(node_id, None)
            restarted.append(node_id)
            if self.on_restart is not None:
                self.on_restart(node_id, self._attempts[node_id])
        return restarted
