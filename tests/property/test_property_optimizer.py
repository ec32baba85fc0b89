"""The optimizer flattens once: every rewrite equals its definition.

:mod:`repro.core.optimizer` flattens a plan on entry to each rewrite and
keeps the rewritten children flat, where the rewrites' definitions (the
reference below) re-flatten at every level of the recursion.  On random
plans — nested joins and unions of scans and holes, unflattened — and
on every plan the differential-test corpus compiles, :func:`optimize`
must return the reference's steps exactly: equal plans with equal
renderings, step by step.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.peers.coordinator as coordinator
from repro.core import CostModel, Statistics
from repro.core.algebra import Hole, Join, Scan, Union, flatten, join_of, union_of
from repro.core.optimizer import (
    MAX_DISTRIBUTED_TERMS,
    _distribution_beneficial,
    optimize,
)
from repro.workloads.paper import paper_query_pattern, paper_schema

from ..difftest.harness import build_hybrid, make_workload


# ----------------------------------------------------------------------
# the reference: each rewrite as defined, flattening at every level
# ----------------------------------------------------------------------
def reference_distribute(plan, cost_model=None, max_terms=MAX_DISTRIBUTED_TERMS):
    plan = flatten(plan)
    if isinstance(plan, (Scan, Hole)):
        return plan
    children = [reference_distribute(c, cost_model, max_terms) for c in plan.children()]
    if isinstance(plan, Union):
        return union_of(children)
    groups = [c.children() if isinstance(c, Union) else (c,) for c in children]
    combinations = 1
    for group in groups:
        combinations *= len(group)
    if combinations <= 1 or combinations > max_terms:
        return join_of(children)
    if cost_model is not None and not _distribution_beneficial(plan, cost_model):
        return join_of(children)
    return union_of(
        [flatten(join_of(list(combo))) for combo in itertools.product(*groups)]
    )


def reference_merge(plan):
    plan = flatten(plan)
    if isinstance(plan, (Scan, Hole)):
        return plan
    children = [reference_merge(c) for c in plan.children()]
    if isinstance(plan, Union):
        return flatten(union_of(children))
    merged, by_peer = [], {}
    for child in children:
        if isinstance(child, Scan):
            by_peer.setdefault(child.peer_id, []).append(child)
        else:
            merged.append(child)
    for peer_id in sorted(by_peer):
        group = by_peer[peer_id]
        if len(group) == 1:
            merged.append(group[0])
        else:
            patterns = sorted(
                (p for scan in group for p in scan.patterns()), key=lambda p: p.label
            )
            merged.append(Scan(tuple(patterns), peer_id))
    merged.sort(key=lambda n: (isinstance(n, Hole), not isinstance(n, Scan), n.render()))
    return join_of(merged)


def reference_order(plan, cost_model):
    plan = flatten(plan)
    if isinstance(plan, (Scan, Hole)):
        return plan
    children = [reference_order(c, cost_model) for c in plan.children()]
    if isinstance(plan, Union):
        return union_of(children)
    children.sort(
        key=lambda c: (isinstance(c, Hole), cost_model.cardinality(c), c.render())
    )
    return join_of(children)


def reference_steps(plan, cost_model=None, cost_based=False):
    """What :func:`optimize` records: the input, then each rewrite's
    plan when it changed something."""
    steps = [("input", flatten(plan))]

    def record(rule, rewritten):
        if rewritten != steps[-1][1]:
            steps.append((rule, rewritten))

    record("distribute joins/unions", reference_distribute(steps[-1][1], cost_model))
    record("merge same-peer (TR1/TR2)", reference_merge(steps[-1][1]))
    if cost_based:
        model = cost_model or CostModel()
        record("cost-based join order", reference_order(steps[-1][1], model))
    return steps


def assert_same_steps(plan, cost_model=None, cost_based=False, coordinator_id=""):
    got = list(
        optimize(plan, cost_model, cost_based=cost_based, coordinator=coordinator_id)
    )
    want = reference_steps(plan, cost_model, cost_based)
    assert [rule for rule, _ in got] == [rule for rule, _ in want]
    for (rule, mine), (_, theirs) in zip(got, want):
        assert mine == theirs, rule
        assert mine.render() == theirs.render(), rule


# ----------------------------------------------------------------------
# random plans
# ----------------------------------------------------------------------
SCHEMA = paper_schema()
PATTERNS = paper_query_pattern(SCHEMA).patterns
PEERS = ("P1", "P2", "P3")

leaves = st.one_of(
    st.builds(
        lambda patterns, peer: Scan(tuple(patterns), peer),
        st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=2, unique=True),
        st.sampled_from(PEERS),
    ),
    st.builds(Hole, st.sampled_from(PATTERNS)),
)
plans = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(Join, st.lists(inner, min_size=1, max_size=3)),
        st.builds(Union, st.lists(inner, min_size=1, max_size=3)),
    ),
    max_leaves=12,
)


def skewed_model() -> CostModel:
    """A model under which some joins are worth distributing and some
    are not, and join orders differ from the rule-based one."""
    statistics = Statistics()
    for index, peer in enumerate(PEERS):
        for rank, pattern in enumerate(PATTERNS):
            statistics.set_cardinality(
                peer, pattern.schema_path.property, 5 + 40 * ((index + rank) % 3)
            )
    return CostModel(statistics)


@given(plans)
@settings(max_examples=300, deadline=None)
def test_optimize_equals_the_rewrites_definition(plan):
    assert_same_steps(plan)


@given(plans)
@settings(max_examples=150, deadline=None)
def test_cost_based_optimize_equals_the_rewrites_definition(plan):
    assert_same_steps(plan, skewed_model(), cost_based=True, coordinator_id="P1")


# ----------------------------------------------------------------------
# the differential-test corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cost_based", [False, True], ids=["rules", "cost-based"])
@pytest.mark.parametrize("seed", range(6))
def test_difftest_corpus_plans_optimize_as_defined(monkeypatch, seed, cost_based):
    """Every plan the coordinators of a difftest deployment optimize."""
    calls = []
    real = coordinator.optimize

    def recorded(plan, cost_model=None, **options):
        calls.append((plan, cost_model, options))
        return real(plan, cost_model, **options)

    monkeypatch.setattr(coordinator, "optimize", recorded)
    workload = make_workload(seed, peers=4)
    system = build_hybrid(workload, cost_based=cost_based)
    for text in workload.queries:
        system.submit(workload.peer_ids[0], text)
        system.run()
    assert calls, "the corpus compiled no plan"
    for plan, cost_model, options in calls:
        assert_same_steps(
            plan, cost_model, options.get("cost_based", False),
            options.get("coordinator", ""),
        )
