"""Tests for the plan cache: exact reuse keyed on routing + statistics."""

import pytest

from repro.cache import PlanCache
from repro.core import build_plan, optimize, route_query
from repro.core.cost import CostModel, Statistics
from repro.rql.pattern import pattern_from_text
from repro.workloads.paper import (
    N1,
    paper_active_schemas,
    paper_query_pattern,
    paper_schema,
)

SCHEMA = paper_schema()
ADS = list(paper_active_schemas(SCHEMA).values())


def _annotated(pattern=None):
    pattern = pattern if pattern is not None else paper_query_pattern(SCHEMA)
    return route_query(pattern, ADS, SCHEMA)


def _compile(annotated, statistics=None):
    return optimize(
        build_plan(annotated), CostModel(statistics or Statistics())
    ).result


class TestPlanCache:
    def test_miss_then_hit_returns_same_plan_object(self):
        cache = PlanCache()
        annotated = _annotated()
        assert cache.get(annotated) is None
        plan = _compile(annotated)
        cache.put(annotated, plan)
        assert cache.get(_annotated()) is plan

    def test_statistics_version_invalidates(self):
        cache = PlanCache()
        statistics = Statistics()
        annotated = _annotated()
        plan = _compile(annotated, statistics)
        cache.put(annotated, plan, statistics.version)
        statistics.set_cardinality("P2", N1.prop1, 5)
        assert cache.get(annotated, statistics.version) is None

    def test_unchanged_statistics_record_keeps_version(self):
        statistics = Statistics()
        statistics.set_cardinality("P2", N1.prop1, 5)
        version = statistics.version
        statistics.set_cardinality("P2", N1.prop1, 5)  # same value
        assert statistics.version == version

    def test_renamed_pattern_is_a_miss(self):
        """Plans embed the query's labels and variables: an isomorphic
        but renamed query must recompile."""
        cache = PlanCache()
        annotated = _annotated()
        cache.put(annotated, _compile(annotated))
        renamed = pattern_from_text(
            "SELECT A, B FROM {A} n1:prop1 {B}, {B} n1:prop2 {C} "
            f"USING NAMESPACE n1 = &{N1.uri}&",
            SCHEMA,
        )
        assert cache.get(_annotated(renamed)) is None

    def test_different_routing_is_a_miss(self):
        cache = PlanCache()
        annotated = _annotated()
        cache.put(annotated, _compile(annotated))
        narrowed = annotated.without_peers({"P2"})
        assert cache.get(narrowed) is None

    def test_a_newer_statistics_version_drops_the_older_plans(self):
        cache = PlanCache()
        annotated = _annotated()
        narrowed = annotated.without_peers({"P2"})
        cache.put(annotated, _compile(annotated), version=3)
        cache.put(narrowed, _compile(narrowed), version=3)
        assert len(cache) == 2 and cache.version == 3
        cache.put(narrowed, _compile(narrowed), version=4)
        assert len(cache) == 1 and cache.version == 4
        assert cache.get(annotated, version=3) is None
        assert cache.get(annotated, version=4) is None
        assert cache.get(narrowed, version=4) is not None

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=1)
        annotated = _annotated()
        cache.put(annotated, _compile(annotated), version=0)
        cache.put(annotated, _compile(annotated), version=1)
        assert len(cache) == 1
        assert cache.get(annotated, version=0) is None
        assert cache.get(annotated, version=1) is not None


class TestPeerScopedInvalidation:
    """Churn-scoped plan eviction (repro.livedata)."""

    def test_view_redefinition_invalidates_stale_fingerprint(self):
        """Pinned regression: when a peer redefines its views, a plan
        compiled against the *old* advertisement must not survive.  A
        racing stale annotation re-keys to the old fingerprint — so
        fingerprint matching alone would serve a plan whose subqueries
        are rewritten against the retracted view.  ``invalidate_peer``
        drops every plan naming the redefined peer, whatever its key."""
        cache = PlanCache()
        annotated = _annotated()
        plan = _compile(annotated)
        cache.put(annotated, plan)
        assert cache.get(annotated) is plan
        dropped = cache.invalidate_peer("P2")
        assert dropped == 1
        assert cache.get(annotated) is None
        assert cache.stats.invalidations == 1

    def test_unrelated_plans_survive(self):
        """Scoped, not a wipe: plans not naming the churned peer stay."""
        cache = PlanCache()
        annotated = _annotated()
        cache.put(annotated, _compile(annotated))
        narrowed = annotated.without_peers({"P2"})
        narrowed_plan = _compile(narrowed)
        cache.put(narrowed, narrowed_plan)
        assert "P2" not in narrowed.all_peers()
        dropped = cache.invalidate_peer("P2")
        assert dropped == 1
        assert cache.get(narrowed) is narrowed_plan

    def test_unknown_peer_is_a_no_op(self):
        cache = PlanCache()
        annotated = _annotated()
        cache.put(annotated, _compile(annotated))
        assert cache.invalidate_peer("P99") == 0
        assert len(cache) == 1
