"""Resilience layer: fault injection, failure detection, retries,
graceful degradation.

The seed stack assumed a friendly network — no loss, no duplication,
omniscient failure bounces.  This package supplies the machinery for a
realistic regime:

- :mod:`~repro.resilience.faults` — seeded deterministic fault
  injection (:class:`FaultPlan` / :class:`FaultInjector`).
- :mod:`~repro.resilience.detector` — heartbeat failure detection
  (:class:`FailureDetector`) and quarantine (:class:`PeerQuarantine`).
- :mod:`~repro.resilience.retry` — per-request deadlines with
  exponential backoff (:class:`RetryPolicy`).
- :mod:`~repro.resilience.partial` — coverage-annotated partial
  answers (:class:`Coverage`) when replanning cannot repair a plan.

:class:`ResilienceConfig` bundles the knobs a system turns on at once;
``systems.hybrid`` / ``systems.adhoc`` accept it via
``enable_resilience``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .detector import FailureDetector, Heartbeat, HeartbeatEmitter, PeerQuarantine
from .faults import FaultInjector, FaultPlan
from .harness import PlayReport, QueryOutcome, heartbeat_round, run_chaos
from .partial import Coverage, full_coverage, restrict_to_answerable
from .retry import RetryPolicy, stable_seed


@dataclass(frozen=True)
class ResilienceConfig:
    """One switchboard for a system's resilience features.

    Attributes:
        channel_retry: Ack/retransmit policy for channel sub-plans
            (``None`` leaves channels fire-and-forget as in the seed).
        routing_retry: Resend policy for hybrid RouteRequests.
        client_retry: Resubmit policy for client QuerySubmits.
        quarantine_enabled: Exclude suspected peers from routing.
        partial_results: Degrade to coverage-annotated partial answers
            instead of erroring when replanning cannot repair a plan.
        heartbeat_interval: Virtual-time spacing of heartbeat rounds.
        suspicion_timeout: Silence before a watched peer is suspected.
        delegation_timeout: Ad-hoc forwarding deadline (``None`` keeps
            the seed's wait-forever behaviour).
        seed: Base seed for per-peer retry jitter streams.
    """

    channel_retry: Optional[RetryPolicy] = None
    routing_retry: Optional[RetryPolicy] = None
    client_retry: Optional[RetryPolicy] = None
    quarantine_enabled: bool = True
    partial_results: bool = True
    heartbeat_interval: float = 10.0
    suspicion_timeout: float = 30.0
    delegation_timeout: Optional[float] = None
    seed: int = 0

    @classmethod
    def default(cls, seed: int = 0) -> "ResilienceConfig":
        """A sensible full-featured config for chaos experiments."""
        return cls(
            channel_retry=RetryPolicy(max_attempts=3, base_timeout=40.0, seed=seed),
            routing_retry=RetryPolicy(max_attempts=3, base_timeout=30.0, seed=seed),
            # generous deadline: a resubmit is idempotent (the
            # coordinator remembers pending and completed queries), so
            # this only has to outlast a healthy query round-trip
            client_retry=RetryPolicy(max_attempts=4, base_timeout=250.0, seed=seed),
            delegation_timeout=80.0,
            seed=seed,
        )


#: every policy off: fire-and-forget channels, no quarantine, errors
#: instead of partial answers — the seed's friendly-network behaviour
RESILIENCE_OFF = ResilienceConfig(quarantine_enabled=False, partial_results=False)


__all__ = [
    "Coverage",
    "FailureDetector",
    "FaultInjector",
    "FaultPlan",
    "Heartbeat",
    "HeartbeatEmitter",
    "PeerQuarantine",
    "PlayReport",
    "QueryOutcome",
    "RESILIENCE_OFF",
    "ResilienceConfig",
    "RetryPolicy",
    "full_coverage",
    "heartbeat_round",
    "restrict_to_answerable",
    "run_chaos",
    "stable_seed",
]
