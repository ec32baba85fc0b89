"""Metamorphic properties of cost-based planning: statistics only
steer *plan choice*, never the answer.

Each relation perturbs the :class:`~repro.core.cost.Statistics` a
cost-based deployment plans against — scaling every cardinality,
shuffling link costs, injecting adversarial load factors, zeroing
everything out, or forgetting every folded summary (missing peers).
The chosen plans may differ arbitrarily; the observable outcome
(result table, error string, coverage annotation) must be exactly the
unperturbed deployment's, and degenerate statistics must never crash
planning.
"""

import pytest

from repro.core.cost import Statistics

from .harness import build_adhoc, build_hybrid, make_workload
from .test_cost_planning import _outcome

SEEDS = [0, 1, 2, 5]
QUERIES_PER_DATASET = 4


class ScaledStatistics(Statistics):
    """Every cardinality inflated by a constant factor."""

    def __init__(self, factor: float):
        super().__init__()
        self._factor = factor

    def cardinality(self, peer_id, prop):
        return int(super().cardinality(peer_id, prop) * self._factor) + 1


class ShuffledLinkStatistics(Statistics):
    """Link costs replaced by a deterministic per-pair pseudo-shuffle."""

    def link_cost(self, a, b):
        if a == b:
            return 0.0
        return 0.1 + (hash((min(a, b), max(a, b))) % 97) / 10.0


class AdversarialLoadStatistics(Statistics):
    """Load factors that wildly favour some peers over others."""

    def load_factor(self, peer_id):
        return 1.0 + (hash(peer_id) % 13) * 100.0


class ZeroStatistics(Statistics):
    """Degenerate: every estimate collapses to zero."""

    def cardinality(self, peer_id, prop):
        return 0

    def selectivity(self, prop):
        return 0.0

    def link_cost(self, a, b):
        return 0.0


class AmnesiacStatistics(Statistics):
    """Degenerate: folding forgets everything — the planner sees no
    peer's summary (the missing-peers case)."""

    def fold_summary(self, summary):
        return None

    def fold_link_observations(self, observations):
        return None


PERTURBATIONS = [
    ("scaled-up-1000x", lambda: ScaledStatistics(1000.0)),
    ("scaled-down", lambda: ScaledStatistics(0.001)),
    ("shuffled-links", ShuffledLinkStatistics),
    ("adversarial-load", AdversarialLoadStatistics),
    ("all-zero", ZeroStatistics),
    ("missing-peers", AmnesiacStatistics),
]


@pytest.mark.parametrize(
    "name,make_stats", PERTURBATIONS, ids=[p[0] for p in PERTURBATIONS]
)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "builder", [build_hybrid, build_adhoc], ids=["hybrid", "adhoc"]
)
def test_perturbed_statistics_never_change_the_answer(
    seed, name, make_stats, builder
):
    workload = make_workload(seed, queries=QUERIES_PER_DATASET)
    baseline = builder(workload, cost_based=True)
    perturbed = builder(
        workload, cost_based=True, statistics=make_stats()
    )
    via = workload.peer_ids[seed % len(workload.peer_ids)]
    for text in workload.queries:
        expected = _outcome(baseline, via, text)
        actual = _outcome(perturbed, via, text)
        assert actual == expected, (
            f"perturbation {name} changed the outcome for {text!r} "
            f"(seed {seed}):\n  perturbed={actual}\n  baseline={expected}"
        )


def test_degenerate_statistics_do_not_crash_direct_planning():
    """Belt and braces: drive the optimiser directly with degenerate
    statistics over a real plan — zero estimates and unknown peers must
    yield a plan, not an exception."""
    from repro.core.cost import CostModel
    from repro.core.optimizer import optimize
    from repro.core.planning import build_plan
    from repro.rql.parser import parse_query

    workload = make_workload(3, queries=QUERIES_PER_DATASET)
    system = build_hybrid(workload, cost_based=True)
    peer = system.peers[workload.peer_ids[0]]
    query = parse_query(workload.queries[0])
    coordinator = peer.coordinator
    annotated = coordinator.route_local(coordinator.extract_pattern(query))
    plan = build_plan(annotated)
    for stats in (ZeroStatistics(), AmnesiacStatistics(), Statistics()):
        trace = optimize(
            plan,
            CostModel(stats),
            cost_based=True,
            coordinator="nobody-knows-this-peer",
        )
        assert trace.result is not None
        assert trace.cost_decision is not None
