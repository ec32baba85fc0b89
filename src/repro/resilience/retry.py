"""Retry policies: per-request deadlines with exponential backoff.

A :class:`RetryPolicy` answers two questions for a requester that got
no reply: *how long do I wait before this attempt times out* and *do I
get another attempt*.  Timeouts grow exponentially and carry optional
deterministic jitter (drawn from the policy's own seeded RNG) so that
synchronised retransmit storms de-correlate without breaking replay.
"""

from __future__ import annotations

import random
import zlib
from typing import Optional


def stable_seed(*parts) -> int:
    """A deterministic seed from arbitrary string/int parts (used to
    give each peer its own jitter stream without sharing RNG state)."""
    text = "|".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


class RetryPolicy:
    """Exponential backoff + jitter over a bounded attempt budget.

    Args:
        max_attempts: Total tries, including the first send.
        base_timeout: Deadline of the first attempt (virtual time).
        backoff: Multiplier applied per further attempt.
        max_timeout: Cap on any single attempt's deadline.
        jitter: Fraction of the deadline added uniformly at random
            (``0.2`` means up to +20%); drawn from the policy's RNG.
        seed: RNG seed for the jitter stream.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_timeout: float = 25.0,
        backoff: float = 2.0,
        max_timeout: float = 240.0,
        jitter: float = 0.0,
        seed: int = 0,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if base_timeout <= 0:
            raise ValueError("base_timeout must be positive")
        self.max_attempts = max_attempts
        self.base_timeout = base_timeout
        self.backoff = backoff
        self.max_timeout = max_timeout
        self.jitter = jitter
        self.seed = seed
        self.rng = random.Random(seed)

    def _parameters(self) -> tuple:
        return (self.max_attempts, self.base_timeout, self.backoff,
                self.max_timeout, self.jitter, self.seed)

    def __eq__(self, other) -> bool:
        """Policies are equal when built from the same parameters (the
        jitter stream's position is run-time state, not identity)."""
        if not isinstance(other, RetryPolicy):
            return NotImplemented
        return self._parameters() == other._parameters()

    def __hash__(self) -> int:
        return hash(self._parameters())

    def timeout(self, attempt: int) -> float:
        """The deadline for attempt number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempts are 1-based")
        deadline = min(
            self.base_timeout * (self.backoff ** (attempt - 1)), self.max_timeout
        )
        if self.jitter:
            deadline += deadline * self.jitter * self.rng.random()
        return deadline

    def attempts_left(self, attempt: int) -> bool:
        """True when attempt number ``attempt`` is within budget."""
        return attempt <= self.max_attempts

    def for_peer(self, peer_id: str, seed: int = 0) -> "RetryPolicy":
        """A copy with a peer-specific jitter stream (deterministic)."""
        return RetryPolicy(
            max_attempts=self.max_attempts,
            base_timeout=self.base_timeout,
            backoff=self.backoff,
            max_timeout=self.max_timeout,
            jitter=self.jitter,
            seed=stable_seed(peer_id, seed),
        )

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(attempts={self.max_attempts}, base={self.base_timeout}, "
            f"backoff={self.backoff})"
        )
