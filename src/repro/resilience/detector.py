"""Failure detection: heartbeats, suspicion timeouts, quarantine.

The paper's run-time adaptation (Section 2.5) assumes the channel root
*learns* that a destination became obsolete; the seed simulator told it
omnisciently.  This module supplies the observational machinery: peers
emit :class:`Heartbeat` beacons, a :class:`FailureDetector` tracks the
last time each watched peer was heard from and raises a *suspicion*
when the silence exceeds a timeout, and a :class:`PeerQuarantine`
(a small circuit breaker) keeps suspected peers out of routing until
they are heard from again.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Set


@dataclass(frozen=True)
class Heartbeat:
    """Liveness beacon payload (peer → its advertisement holders)."""

    sender: str

    def size_bytes(self) -> int:
        return 32

    def __repr__(self) -> str:
        return f"Heartbeat({self.sender})"


class PeerQuarantine:
    """A per-peer circuit breaker over suspicion reports.

    A peer trips open after ``trip_threshold`` failure reports and is
    excluded from routing until :meth:`restore` closes it again (a
    heartbeat or successful delivery is the half-open probe).
    """

    def __init__(self, trip_threshold: int = 1):
        if trip_threshold < 1:
            raise ValueError("trip_threshold must be at least 1")
        self.trip_threshold = trip_threshold
        self._failures: Dict[str, int] = {}
        self._open: Set[str] = set()

    @property
    def peers(self) -> Set[str]:
        """The currently quarantined peers (a live view copy)."""
        return set(self._open)

    def record_failure(self, peer_id: str) -> bool:
        """Report one failure; returns True when the breaker trips now."""
        if peer_id in self._open:
            return False
        count = self._failures.get(peer_id, 0) + 1
        self._failures[peer_id] = count
        if count >= self.trip_threshold:
            self._open.add(peer_id)
            return True
        return False

    def restore(self, peer_id: str) -> bool:
        """Close the breaker (peer observed alive); True when it was open."""
        self._failures.pop(peer_id, None)
        if peer_id in self._open:
            self._open.discard(peer_id)
            return True
        return False

    def is_quarantined(self, peer_id: str) -> bool:
        return peer_id in self._open

    def __len__(self) -> int:
        return len(self._open)

    def __contains__(self, peer_id: str) -> bool:
        return peer_id in self._open

    def __repr__(self) -> str:
        return f"PeerQuarantine(open={sorted(self._open)})"


class FailureDetector:
    """Suspicion-timeout failure detector over heartbeat observations.

    Args:
        owner: The observing peer's id (tracing only).
        network: The simulator (supplies the clock and ``call_later``),
            held weakly: it owns the super-peer that owns this detector.
        suspicion_timeout: How far (virtual time) a watched peer may
            lag behind the *freshest* observation of any watched peer
            before it is suspected.  Relative to the watermark rather
            than the wall clock, so the detector is robust to bursty
            heartbeat cadences: when beats arrive in synchronised
            rounds, live peers track the watermark closely and only a
            genuinely silent peer falls behind it.
        interval: Check period for the self-scheduling mode.
        on_suspect: Called once per transition alive → suspected.
        on_restore: Called once per transition suspected → alive.

    The detector works in two modes: **polled** (the harness calls
    :meth:`poll` at whatever cadence it drives heartbeats — keeps the
    discrete-event queue quiescent between rounds) or **self-scheduled**
    (:meth:`start` arms ``rounds`` periodic checks over ``call_later``).
    """

    def __init__(
        self,
        owner: str,
        network,
        suspicion_timeout: float = 30.0,
        interval: float = 10.0,
        on_suspect: Optional[Callable[[str], None]] = None,
        on_restore: Optional[Callable[[str], None]] = None,
    ):
        if suspicion_timeout <= 0 or interval <= 0:
            raise ValueError("timeout and interval must be positive")
        self.owner = owner
        self.network = weakref.proxy(network)
        self.suspicion_timeout = suspicion_timeout
        self.interval = interval
        self.on_suspect = on_suspect
        self.on_restore = on_restore
        self._last_seen: Dict[str, float] = {}
        self.suspected: Set[str] = set()
        self._rounds_left = 0

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------
    def watch(self, peer_id: str) -> None:
        """Track a peer, counting from the current virtual time."""
        self._last_seen.setdefault(peer_id, self.network.now)

    def unwatch(self, peer_id: str) -> None:
        self._last_seen.pop(peer_id, None)
        self.suspected.discard(peer_id)

    def watched(self) -> Set[str]:
        return set(self._last_seen)

    def beat(self, peer_id: str) -> None:
        """A heartbeat (or any message) arrived from ``peer_id``."""
        self._last_seen[peer_id] = self.network.now
        if peer_id in self.suspected:
            self.suspected.discard(peer_id)
            if self.on_restore is not None:
                self.on_restore(peer_id)

    # ------------------------------------------------------------------
    # suspicion checks
    # ------------------------------------------------------------------
    def poll(self) -> Set[str]:
        """Check every watched peer now; returns newly suspected peers.

        A peer is suspected when it lags the watermark (the freshest
        observation across all watched peers) by more than the
        suspicion timeout.  Limitation: if *every* watched peer goes
        silent at once the watermark goes stale and nobody is suspected
        until somebody beats again — acceptable for an observer that is
        itself part of the deployment (it would be partitioned too).
        """
        fresh: Set[str] = set()
        if not self._last_seen:
            return fresh
        watermark = max(self._last_seen.values())
        for peer_id in sorted(self._last_seen):
            if peer_id in self.suspected:
                continue
            if watermark - self._last_seen[peer_id] > self.suspicion_timeout:
                self.suspected.add(peer_id)
                fresh.add(peer_id)
                if self.on_suspect is not None:
                    self.on_suspect(peer_id)
        return fresh

    def start(self, rounds: int) -> None:
        """Self-schedule ``rounds`` periodic checks (bounded so the
        event loop still quiesces)."""
        if rounds <= 0:
            return
        self._rounds_left = rounds
        self.network.call_later(self.interval, self._tick)

    def stop(self) -> None:
        self._rounds_left = 0

    def _tick(self) -> None:
        if self._rounds_left <= 0:
            return
        self._rounds_left -= 1
        self.poll()
        if self._rounds_left > 0:
            self.network.call_later(self.interval, self._tick)

    def __repr__(self) -> str:
        return (
            f"FailureDetector({self.owner}, watched={len(self._last_seen)}, "
            f"suspected={sorted(self.suspected)})"
        )


class HeartbeatEmitter:
    """Periodic heartbeat sender for one peer.

    Like the detector it supports both an explicit :meth:`emit_once`
    (harness-driven rounds) and a bounded self-scheduling :meth:`start`.
    """

    def __init__(self, peer, targets: Iterable[str], interval: float = 10.0):
        self.peer = peer
        self.targets = tuple(targets)
        self.interval = interval
        self._rounds_left = 0

    def emit_once(self) -> int:
        """Send one heartbeat to every target; returns how many went out."""
        network = self.peer.network
        if network is None or network.is_down(self.peer.peer_id):
            return 0
        sent = 0
        for target in self.targets:
            self.peer.send(target, Heartbeat(self.peer.peer_id))
            sent += 1
        return sent

    def start(self, rounds: int) -> None:
        if rounds <= 0 or self.peer.network is None:
            return
        self._rounds_left = rounds
        self.peer.network.call_later(self.interval, self._tick)

    def stop(self) -> None:
        self._rounds_left = 0

    def _tick(self) -> None:
        if self._rounds_left <= 0:
            return
        self._rounds_left -= 1
        self.emit_once()
        if self._rounds_left > 0:
            self.peer.network.call_later(self.interval, self._tick)
