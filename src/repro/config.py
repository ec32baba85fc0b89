"""One configuration value per peer.

:class:`PeerConfig` holds every behaviour value a peer reads.  It is
frozen: a peer is handed its config at construction (``config=``) and
reads ``self.config.<field>`` at the point of use; a later change of
behaviour replaces the whole value (:func:`reconfigure`), it never
pokes one attribute.  Topology and shared state
(neighbours, home super-peer, statistics store, DHT, extra bases) are
ordinary constructor arguments, not configuration.

The same value configures every role: a super-peer reads the caching,
quarantine and admission fields, a client the resubmit policy, a simple
peer all of them.  Two deployments run the same protocol exactly when
their peers' configs compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .core.adaptivity import ReplanBudget
from .resilience import RESILIENCE_OFF, ResilienceConfig


@dataclass(frozen=True)
class AdmissionControl:
    """Per-peer admission policy: bounded queues, shedding, deadlines.

    Under sustained load unbounded acceptance degrades *every* in-flight
    query at once.  A coordinator runs at most ``max_concurrent``
    coordinations, parks up to ``max_queued`` more in a FIFO, sheds the
    rest with a retry-after hint, and (when ``deadline`` is set) cancels
    stragglers through the ubQL discard path so a stuck query releases
    its channels and its slot.  A super-peer paces its routing service
    by the same policy: route requests beyond the queue bound are
    answered with :class:`~repro.peers.protocol.RouteBusy`, queued ones
    are served one per ``service_time``.

    Args:
        max_concurrent: Coordinations (or routing computations) allowed
            to run at once; arrivals beyond it queue.
        max_queued: Bound on the pending-query FIFO; arrivals beyond it
            are shed with a retry-after reply.
        retry_after: Virtual-time back-off hint carried by shed replies.
        deadline: Per-query virtual time budget measured from
            admission; ``None`` disables deadlines.  An expired query is
            cancelled via the ubQL discard path and answered with an
            explicit deadline error — never silence.
        service_time: Virtual time a super-peer spends serving one
            queued route request (models routing CPU).
    """

    max_concurrent: int = 8
    max_queued: int = 16
    retry_after: float = 25.0
    deadline: Optional[float] = None
    service_time: float = 1.0

    def __post_init__(self):
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        if self.retry_after <= 0:
            raise ValueError("retry_after must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive when set")
        if self.service_time < 0:
            raise ValueError("service_time must be >= 0")


@dataclass(frozen=True)
class PeerConfig:
    """Every behaviour value a peer reads.

    Attributes:
        cache_enabled: Run the :mod:`repro.cache` subsystem — routing
            cache, plan cache and request coalescing (``--no-cache``
            turns it off: the paper's cold per-query routing).  Read
            once, at construction, when the caches are built.
        batch_size: Maximum bindings per shipped ``DataPacket``; larger
            results fragment into chunks of this many rows
            (``--batch-size``).
        cost_based: Statistics-driven planning (``--cost-based``): the
            peer advertises a :class:`~repro.core.cost.StatSummary`,
            folds observed link behaviour into the shared statistics,
            lets the optimiser reorder joins by estimated cardinality
            and the cost model place operators per subplan (data,
            query or hybrid shipping, Section 2.5).
        failure_policy: What happens to partial results on a replan —
            ``"discard"`` (the ubQL policy SQPeer adopts) or
            ``"phased"`` (the [Ives02] alternative: completed
            subresults carry over into the next phase).
        pipelined_execution: Stream remote chunks through incremental
            joins/unions at the coordinator (Section 2.5's "pipeline
            way") instead of gathering whole tables.
        monitor_interval: When set, a tuple-flow watchdog ticks every
            this much virtual time and replans away from stalled
            channels (Section 2.5); ``None`` watches nothing.
        topk_cancel: Any-k early termination for ``LIMIT`` queries:
            remaining channels are discarded the ubQL way once k rows
            are stable.
        stream_interval: When set, a result larger than
            :attr:`batch_size` streams back paced, one chunk of every
            output per this much virtual time (the tuple flow run-time
            adaptation observes); ``None`` sends the chunks
            back-to-back.
        max_discovery_depth: Ad-hoc only — how far advertisement
            requests may travel when local knowledge leaves holes
            (Section 3.2's 2-depth, 3-depth neighbourhoods).
        replan_budget: Bound (and back-off) of the adaptation loop.
        resilience: Retry, quarantine, partial-answer and delegation
            policies (:data:`~repro.resilience.RESILIENCE_OFF`
            reproduces the seed's friendly-network behaviour).
        admission: Bounds on what a coordinator (or a super-peer's
            routing service) accepts; ``None`` admits everything.
    """

    cache_enabled: bool = True
    batch_size: int = 256
    cost_based: bool = False
    failure_policy: str = "discard"
    pipelined_execution: bool = False
    monitor_interval: Optional[float] = None
    topk_cancel: bool = False
    stream_interval: Optional[float] = None
    max_discovery_depth: int = 3
    replan_budget: ReplanBudget = ReplanBudget()
    resilience: ResilienceConfig = RESILIENCE_OFF
    admission: Optional[AdmissionControl] = None

    def __post_init__(self):
        if self.failure_policy not in ("discard", "phased"):
            raise ValueError("failure_policy must be 'discard' or 'phased'")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for name in ("monitor_interval", "stream_interval"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0 when set")


#: the seed behaviour: what a peer constructed without ``config=`` runs
DEFAULT_CONFIG = PeerConfig()


def topk_streaming(config: PeerConfig) -> PeerConfig:
    """``config`` with any-k early termination on, and results streamed
    paced in four-row chunks so the cancellation has channels left to
    stop — what ``run --topk`` (a ``livedata`` cluster) runs."""
    return replace(config, topk_cancel=True, batch_size=4, stream_interval=2.0)


def reconfigure(holder, **changes) -> None:
    """Change behaviour after construction: replace ``holder.config``
    (a peer's, or a deployment's template for the nodes it adds next) by
    a copy with ``changes`` applied.  An unknown field is a
    ``TypeError``; ``cache_enabled`` is consumed when a node builds its
    caches, so it cannot change afterwards."""
    config = replace(holder.config, **changes)
    if config.cache_enabled != holder.config.cache_enabled:
        raise ValueError("cache_enabled is fixed at construction")
    holder.config = config
