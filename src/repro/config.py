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
from .workload_engine.admission import AdmissionControl


@dataclass(frozen=True)
class PeerConfig:
    """Every behaviour value a peer reads.

    Attributes:
        cache_enabled: Run the :mod:`repro.cache` subsystem — routing
            cache, plan cache and request coalescing (``--no-cache``
            turns it off: the paper's cold per-query routing).  Read
            once, at construction, when the caches are built.
        batch_size: Maximum bindings per shipped ``DataPacket``; larger
            results fragment back-to-back (``--batch-size``).
        cost_based: Statistics-driven planning (``--cost-based``): the
            peer advertises a :class:`~repro.core.cost.StatSummary`,
            folds observed link behaviour into the shared statistics,
            lets the optimiser reorder joins by estimated cardinality
            and the cost model place operators per subplan.
        adaptive: Replan on channel failures (Section 2.5).
        optimize_plans: Apply compile-time optimisation.
        use_shipping: Let the cost model place operators (hybrid
            shipping); otherwise everything joins at the coordinator.
        failure_policy: What happens to partial results on a replan —
            ``"discard"`` (the ubQL policy SQPeer adopts) or
            ``"phased"`` (the [Ives02] alternative: completed
            subresults carry over into the next phase).
        pipelined_execution: Stream remote chunks through incremental
            joins/unions at the coordinator (Section 2.5's "pipeline
            way") instead of gathering whole tables.
        monitor_channels: Watch per-channel tuple flow and replan away
            from stalled channels (Section 2.5).
        monitor_interval: Virtual time between two monitoring ticks.
        topk_cancel: Any-k early termination for ``LIMIT`` queries:
            remaining channels are discarded the ubQL way once k rows
            are stable.
        live_full_refresh: Baseline of the maintenance-cost
            experiments: re-push the full advertisement after every
            applied update batch instead of a delta.
        stream_chunk_rows: When set, subplan results stream back in
            chunks of this many rows paced by :attr:`stream_interval`
            (the tuple flow run-time adaptation observes); takes
            precedence over the implicit :attr:`batch_size`
            fragmentation.
        stream_interval: Virtual-time spacing between streamed chunks.
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
    adaptive: bool = True
    optimize_plans: bool = True
    use_shipping: bool = False
    failure_policy: str = "discard"
    pipelined_execution: bool = False
    monitor_channels: bool = False
    monitor_interval: float = 15.0
    topk_cancel: bool = False
    live_full_refresh: bool = False
    stream_chunk_rows: Optional[int] = None
    stream_interval: float = 2.0
    max_discovery_depth: int = 3
    replan_budget: ReplanBudget = ReplanBudget()
    resilience: ResilienceConfig = RESILIENCE_OFF
    admission: Optional[AdmissionControl] = None

    def __post_init__(self):
        if self.failure_policy not in ("discard", "phased"):
            raise ValueError("failure_policy must be 'discard' or 'phased'")


#: the seed behaviour: what a peer constructed without ``config=`` runs
DEFAULT_CONFIG = PeerConfig()


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
