"""Property test: cached routing ≡ cold routing under arbitrary churn.

Drives a cache-backed :class:`~repro.core.routing_index.RoutingIndex`
through random interleavings of peer joins, Goodbyes, advertisement
refreshes and queries, mirroring every mutation into a plain dict
registry.  After *every* query step, the cache-served annotation must
be identical (``same_annotations``) to a cold
:func:`~repro.core.routing.route_query` over the mirrored registry —
the coherence contract of the ISSUE's caching subsystem.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import route_query
from repro.core.routing_index import RoutingIndex
from repro.rql.pattern import SchemaPath, pattern_from_text
from repro.rvl import ActiveSchema
from repro.workloads.paper import N1, paper_query_pattern, paper_schema

SCHEMA = paper_schema()

#: all declared schema paths an advertisement may contain
ALL_PATHS = [
    SchemaPath(SCHEMA.domain_of(p), p, SCHEMA.range_of(p))
    for p in sorted(SCHEMA.properties)
]

PEER_IDS = [f"H{i:02d}" for i in range(6)]


def _q(body, select="X, Y"):
    return pattern_from_text(
        f"SELECT {select} FROM {body} USING NAMESPACE n1 = &{N1.uri}&", SCHEMA
    )


#: the query mix: the paper's join, its alpha-renamed and reordered
#: variants (each its own cache entry), and singletons over each property
QUERIES = [
    paper_query_pattern(SCHEMA),
    _q("{A} n1:prop1 {B}, {B} n1:prop2 {C}", select="A, B"),
    _q("{Y} n1:prop2 {Z}, {X} n1:prop1 {Y}"),
    _q("{X} n1:prop1 {Y}"),
    _q("{X} n1:prop2 {Y}"),
    _q("{X} n1:prop3 {Y}"),
    _q("{X} n1:prop4 {Y}"),
]

footprints = st.lists(
    st.sampled_from(ALL_PATHS), min_size=1, max_size=3, unique=True
)

events = st.one_of(
    st.tuples(st.just("advertise"), st.sampled_from(PEER_IDS), footprints),
    st.tuples(st.just("goodbye"), st.sampled_from(PEER_IDS)),
    st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1)),
)


class TestChurnCoherence:
    @given(st.lists(events, min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_cached_answers_track_registry(self, script):
        index = RoutingIndex(SCHEMA)
        registry = {}
        queried = False
        for event in script:
            if event[0] == "advertise":
                _, peer_id, paths = event
                advertisement = ActiveSchema(
                    SCHEMA.namespace.uri, paths, peer_id=peer_id
                )
                index.add(advertisement)
                registry[peer_id] = advertisement
            elif event[0] == "goodbye":
                _, peer_id = event
                index.remove(peer_id)
                registry.pop(peer_id, None)
            else:
                _, which = event
                pattern = QUERIES[which]
                served = index.route(pattern)
                cold = route_query(pattern, registry.values(), SCHEMA)
                assert served.same_annotations(cold), (
                    f"cache diverged on {pattern} after {event}"
                )
                queried = True
        if queried:
            # at least one lookup happened (hit or miss)
            assert index.cache.stats.hits + index.cache.stats.misses > 0

    @given(st.lists(events, min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_repeat_query_after_script_hits_and_agrees(self, script):
        """Whatever the churn history, an immediately repeated query is
        a hit and returns the cold answer."""
        index = RoutingIndex(SCHEMA)
        registry = {}
        for event in script:
            if event[0] == "advertise":
                _, peer_id, paths = event
                advertisement = ActiveSchema(
                    SCHEMA.namespace.uri, paths, peer_id=peer_id
                )
                index.add(advertisement)
                registry[peer_id] = advertisement
            elif event[0] == "goodbye":
                index.remove(event[1])
                registry.pop(event[1], None)
            else:
                index.route(QUERIES[event[1]])
        pattern = QUERIES[0]
        index.route(pattern)  # warm (or already warm)
        hits_before = index.cache.stats.hits
        warm = index.route(pattern)
        assert index.cache.stats.hits == hits_before + 1
        assert warm.same_annotations(route_query(pattern, registry.values(), SCHEMA))
