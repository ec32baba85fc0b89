"""Tests for the routing cache: pattern-keyed hits, scoped invalidation."""

import pytest

from repro.cache import RoutingCache
from repro.core import route_query
from repro.core.annotations import PeerAnnotation
from repro.core.routing_index import RoutingIndex
from repro.rql.pattern import SchemaPath, pattern_from_text
from repro.rvl import ActiveSchema
from repro.workloads.paper import (
    N1,
    paper_active_schemas,
    paper_query_pattern,
    paper_schema,
)

SCHEMA = paper_schema()
URI = SCHEMA.namespace.uri


def _q(body, select="X, Y"):
    return pattern_from_text(
        f"SELECT {select} FROM {body} USING NAMESPACE n1 = &{N1.uri}&", SCHEMA
    )


def _ad(peer_id, *props):
    paths = []
    for prop in props:
        definition = SCHEMA.property_def(prop)
        paths.append(SchemaPath(definition.domain, prop, definition.range))
    return ActiveSchema(URI, paths, peer_id=peer_id)


@pytest.fixture
def pattern():
    return paper_query_pattern(SCHEMA)


@pytest.fixture
def ads():
    return paper_active_schemas(SCHEMA)


@pytest.fixture
def cache():
    return RoutingCache()


class TestHitAndRetarget:
    def test_miss_then_hit(self, cache, pattern, ads):
        assert cache.get(pattern) is None
        annotated = route_query(pattern, ads.values(), SCHEMA)
        cache.put(pattern, annotated)
        cached = cache.get(pattern)
        assert cached is not None
        assert cached.same_annotations(annotated)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_hit_is_a_fresh_annotation(self, cache, pattern, ads):
        """Callers annotate the routed result in place: what one hit
        gains never reaches the entry or the next hit."""
        cache.put(pattern, route_query(pattern, ads.values(), SCHEMA))
        first = cache.get(pattern)
        first.annotate(pattern.root, PeerAnnotation("P9", pattern.root, True))
        assert "P9" in first.all_peers()
        assert "P9" not in cache.get(pattern).all_peers()

    def _assert_miss_routed_cold(self, pattern, ads, variant):
        """The key is the pattern itself: a variant of a cached query
        misses, and routing it answers as cold."""
        index = RoutingIndex(SCHEMA)
        for advertisement in ads.values():
            index.add(advertisement)
        index.route(pattern)
        served = index.route(variant)
        assert index.cache.stats.hits == 0 and index.cache.stats.misses == 2
        assert served.same_annotations(route_query(variant, ads.values(), SCHEMA))

    def test_alpha_renamed_is_a_miss_routed_cold(self, pattern, ads):
        renamed = _q("{A} n1:prop1 {B}, {B} n1:prop2 {C}", select="A, B")
        self._assert_miss_routed_cold(pattern, ads, renamed)

    def test_reordered_is_a_miss_routed_cold(self, pattern, ads):
        reordered = _q("{Y} n1:prop2 {Z}, {X} n1:prop1 {Y}")
        self._assert_miss_routed_cold(pattern, ads, reordered)

    def test_negative_entry(self, cache, pattern):
        cache.put(pattern, route_query(pattern, [], SCHEMA))
        served = cache.get(pattern)
        assert served is not None
        assert not served.all_peers()
        assert cache.stats.negative_hits == 1


class TestScopedInvalidation:
    """Driven through :class:`RoutingIndex`, which computes each
    advertisement's superproperty closure once and hands it over."""

    @pytest.fixture
    def index(self, ads):
        index = RoutingIndex(SCHEMA)
        for advertisement in list(ads.values()) + [_ad("P9", N1.prop3)]:
            index.add(advertisement)
        return index

    def _warm(self, index):
        """Two entries: the prop1⋈prop2 join and a prop3 singleton
        answered by a disjoint peer."""
        join = paper_query_pattern(SCHEMA)
        solo = _q("{X} n1:prop3 {Y}")
        index.route(join)
        index.route(solo)
        return join, solo

    def test_goodbye_touches_only_annotating_entries(self, index):
        join, solo = self._warm(index)
        index.remove("P9")
        assert index.cache.stats.invalidations == 1
        assert solo not in index.cache  # P9 annotated it: gone
        assert join in index.cache  # untouched

    def test_goodbye_of_unannotated_peer_is_noop(self, index):
        join = paper_query_pattern(SCHEMA)
        index.route(join)  # P9 (prop3) annotates no cached entry
        index.remove("P9")
        index.remove("stranger")
        assert index.cache.stats.invalidations == 0
        assert join in index.cache

    def test_new_advertisement_invalidates_by_property_closure(self, index):
        """An ad for prop4 ⊑ prop1 can extend prop1 entries, so the
        join entry drops; the prop3 entry survives."""
        join, solo = self._warm(index)
        index.add(_ad("P10", N1.prop4))
        assert join not in index.cache
        assert solo in index.cache
        assert "P10" in index.route(join).all_peers()

    def test_unchanged_readvertise_is_noop(self, index, ads):
        join, solo = self._warm(index)
        epoch = index.cache.epoch
        index.add(ads["P2"])
        assert index.cache.epoch == epoch
        assert join in index.cache

    def test_refresh_invalidates_old_footprint_entries(self, index):
        """A refresh dropping a property still invalidates entries the
        peer annotates (its rewrites may be stale)."""
        join, solo = self._warm(index)
        index.add(_ad("P1", N1.prop2))  # P1 stops advertising prop1
        assert join not in index.cache
        assert solo in index.cache

    def test_negative_entry_revived_by_relevant_advertise(self):
        index = RoutingIndex(SCHEMA)
        pattern = _q("{X} n1:prop3 {Y}")
        index.route(pattern)
        assert pattern in index.cache
        index.add(_ad("P9", N1.prop3))
        assert pattern not in index.cache  # must be recomputed
        assert index.route(pattern).all_peers() == ("P9",)

    def test_epoch_bumps_on_mutation(self, index, ads):
        before = index.cache.epoch
        index.add(_ad("P2", N1.prop3))
        index.remove("P2")
        assert index.cache.epoch == before + 2


class TestCapacity:
    def test_eviction_at_max_entries(self, ads):
        cache = RoutingCache(max_entries=1)
        first = _q("{X} n1:prop1 {Y}")
        second = _q("{X} n1:prop2 {Y}")
        cache.put(first, route_query(first, ads.values(), SCHEMA))
        cache.put(second, route_query(second, ads.values(), SCHEMA))
        assert len(cache) == 1
        assert cache.get(second) is not None

    def test_clear(self, cache, pattern, ads):
        cache.put(pattern, route_query(pattern, ads.values(), SCHEMA))
        assert cache.clear() == 1
        assert len(cache) == 0


class TestRoutingIndexIntegration:
    def test_warm_route_equals_cold(self, pattern, ads):
        index = RoutingIndex(SCHEMA)
        for advertisement in ads.values():
            index.add(advertisement)
        cold = index.route(pattern)
        warm = index.route(pattern)
        assert warm.same_annotations(cold)
        assert index.cache.stats.hits == 1

    def test_empty_registry_cached_negatively(self, pattern):
        index = RoutingIndex(SCHEMA)
        first = index.route(pattern)
        assert not first.all_peers()
        index.route(pattern)
        assert index.cache.stats.negative_hits == 1

    def test_add_after_negative_entry_recomputes(self, pattern, ads):
        index = RoutingIndex(SCHEMA)
        index.route(pattern)  # negative
        index.add(ads["P1"])
        assert index.route(pattern).all_peers() == ("P1",)

    def test_remove_invalidates(self, pattern, ads):
        index = RoutingIndex(SCHEMA)
        for advertisement in ads.values():
            index.add(advertisement)
        index.route(pattern)
        index.remove("P2")
        rerouted = index.route(pattern)
        assert "P2" not in rerouted.all_peers()

    def test_use_cache_false_runs_cold(self, pattern, ads):
        index = RoutingIndex(SCHEMA, use_cache=False)
        assert index.cache is None
        for advertisement in ads.values():
            index.add(advertisement)
        annotated = index.route(pattern)
        assert annotated.same_annotations(route_query(pattern, ads.values(), SCHEMA))
