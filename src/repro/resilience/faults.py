"""Fault injection: a seeded, deterministic model of network misbehaviour.

The seed simulator knows exactly one fault — a binary ``fail_peer``
flag whose delivery failures bounce back to the sender omnisciently.
Real deployments lose, duplicate and delay messages.  A
:class:`FaultPlan` describes such a regime declaratively; a
:class:`FaultInjector` draws every decision from its own seeded RNG, so
a chaos experiment replays bit-for-bit under the same seed.  (What
happens to whole peers and links — crashes, restarts, partitions — is a
:class:`~repro.scenario.Scenario`'s business.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of one chaos regime.

    Attributes:
        seed: RNG seed for every probabilistic decision.
        drop_rate: Probability a message vanishes in flight.
        duplicate_rate: Probability a message is delivered twice.
        jitter: Uniform extra latency in ``[0, jitter]`` added per
            message (reorders messages of similar latency).
        spike_rate: Probability of a latency spike.
        spike_latency: Extra latency charged on a spike.
        omniscient: Keep the seed simulator's legacy behaviour —
            messages to down peers bounce back as ``DeliveryFailure``
            and ``fail_peer`` broadcasts liveness to every peer.  The
            realistic default makes peers learn failures from
            observation (timeouts and missed heartbeats) only.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    jitter: float = 0.0
    spike_rate: float = 0.0
    spike_latency: float = 0.0
    omniscient: bool = False

    def validate(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "spike_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.jitter < 0 or self.spike_latency < 0:
            raise ValueError("jitter and spike_latency must be non-negative")


class FaultInjector:
    """Draws per-message fault decisions for one :class:`FaultPlan`.

    The injector owns a dedicated ``random.Random(plan.seed)`` —
    independent of the network's RNG, so installing faults never
    perturbs topology generation or protocol randomness, and the
    decision sequence is a pure function of the (deterministic)
    message sequence.
    """

    def __init__(self, plan: FaultPlan):
        plan.validate()
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    def drops(self, message) -> bool:
        """Decide whether this message vanishes in flight."""
        if self.plan.drop_rate and self.rng.random() < self.plan.drop_rate:
            self.dropped += 1
            return True
        return False

    def duplicates(self, message) -> bool:
        """Decide whether this message is delivered a second time."""
        if self.plan.duplicate_rate and self.rng.random() < self.plan.duplicate_rate:
            self.duplicated += 1
            return True
        return False

    def extra_delay(self) -> float:
        """Jitter plus (probabilistically) a latency spike."""
        delay = 0.0
        if self.plan.jitter:
            delay += self.rng.random() * self.plan.jitter
        if self.plan.spike_rate and self.rng.random() < self.plan.spike_rate:
            delay += self.plan.spike_latency
        if delay:
            self.delayed += 1
        return delay

    def __repr__(self) -> str:
        return (
            f"FaultInjector(dropped={self.dropped}, duplicated={self.duplicated}, "
            f"delayed={self.delayed})"
        )
