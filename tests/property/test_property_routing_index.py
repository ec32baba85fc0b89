"""Property tests: indexed routing ≡ exhaustive routing — for one index
and for a node's whole registry under churn and suspicion — and bounded
routing is a sound restriction of full routing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PeerConfig
from repro.core import QueryConstraints, apply_peer_bound, route_query
from repro.core.routing_index import RoutingIndex
from repro.livedata.updates import AdvertiseDelta, apply_advertisement_delta
from repro.peers import SuperPeer
from repro.resilience import ResilienceConfig
from repro.rql.pattern import SchemaPath, pattern_from_text
from repro.rvl import ActiveSchema
from repro.workloads.paper import N1, paper_query_pattern, paper_schema

SCHEMA = paper_schema()
PATTERN = paper_query_pattern(SCHEMA)

#: all declared schema paths an advertisement may contain
ALL_PATHS = [
    SchemaPath(SCHEMA.domain_of(p), p, SCHEMA.range_of(p))
    for p in sorted(SCHEMA.properties)
]


@st.composite
def advertisement_sets(draw):
    count = draw(st.integers(1, 12))
    ads = []
    for i in range(count):
        subset = draw(
            st.lists(st.sampled_from(ALL_PATHS), min_size=0, max_size=3, unique=True)
        )
        ads.append(
            ActiveSchema(SCHEMA.namespace.uri, subset, peer_id=f"H{i:02d}")
        )
    return ads


class TestIndexEquivalence:
    @given(advertisement_sets())
    @settings(max_examples=60, deadline=None)
    def test_index_matches_exhaustive(self, ads):
        index = RoutingIndex(SCHEMA)
        for advertisement in ads:
            index.add(advertisement)
        via_index = index.route(PATTERN)
        exhaustive = route_query(PATTERN, ads, SCHEMA)
        for path_pattern in PATTERN:
            assert via_index.peers_for(path_pattern) == exhaustive.peers_for(
                path_pattern
            )

    @given(advertisement_sets(), st.integers(0, 11))
    @settings(max_examples=40, deadline=None)
    def test_index_survives_removal(self, ads, victim_index):
        index = RoutingIndex(SCHEMA)
        for advertisement in ads:
            index.add(advertisement)
        victim = ads[victim_index % len(ads)].peer_id
        index.remove(victim)
        survivors = [a for a in ads if a.peer_id != victim]
        via_index = index.route(PATTERN)
        exhaustive = route_query(PATTERN, survivors, SCHEMA)
        for path_pattern in PATTERN:
            assert via_index.peers_for(path_pattern) == exhaustive.peers_for(
                path_pattern
            )


PEER_IDS = [f"H{i:02d}" for i in range(5)]
#: the paper's join plus a singleton over every property
QUERIES = [PATTERN] + [
    pattern_from_text(
        f"SELECT X, Y FROM {{X}} n1:{name} {{Y}} USING NAMESPACE n1 = &{N1.uri}&",
        SCHEMA,
    )
    for name in ("prop1", "prop2", "prop3", "prop4")
]
some_paths = st.lists(st.sampled_from(ALL_PATHS), max_size=3, unique=True)
a_peer = st.sampled_from(PEER_IDS)
registry_events = st.one_of(
    st.tuples(st.just("add"), a_peer, some_paths),
    st.tuples(st.just("patch"), a_peer, some_paths, some_paths),
    st.tuples(st.just("remove"), a_peer),
    st.tuples(st.just("suspect"), a_peer),
    st.tuples(st.just("restore"), a_peer),
    st.tuples(st.just("route"), st.sampled_from(QUERIES)),
)


class TestRegistryEquivalence:
    """``SONRegistry.route`` — cache, buckets, quarantine filter — against
    the paper's exhaustive scan over the advertisements that survive:
    filed, not dropped, their peer not under suspicion."""

    @given(st.lists(registry_events, min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_route_matches_cold_scan_of_survivors(self, script):
        uri = SCHEMA.namespace.uri
        config = PeerConfig(resilience=ResilienceConfig.default(0))
        # the registry holds its peer weakly: keep the peer referenced
        holder = SuperPeer("SP", schemas=[SCHEMA], config=config)
        registry = holder.sons
        held, suspected = {}, set()
        for kind, *args in script + [("route", query) for query in QUERIES]:
            if kind == "add":
                held[args[0]] = ActiveSchema(uri, args[1], peer_id=args[0])
                registry.add(held[args[0]])
            elif kind == "patch":
                delta = AdvertiseDelta(uri, args[0], tuple(args[1]), tuple(args[2]))
                patched = registry.patch(delta)
                if args[0] in held:
                    before = held[args[0]]
                    held[args[0]] = apply_advertisement_delta(before, delta)
                    assert patched == (before, held[args[0]])
                else:
                    assert patched is None
            elif kind == "remove":
                registry.remove_peer(args[0])
                held.pop(args[0], None)
            elif kind == "suspect":
                registry.suspect(args[0])
                suspected.add(args[0])
            elif kind == "restore":
                assert registry.restore(args[0]) == (args[0] in suspected)
                suspected.discard(args[0])
            else:
                survivors = [a for p, a in held.items() if p not in suspected]
                cold = route_query(args[0], survivors, SCHEMA)
                assert registry.route(args[0]).same_annotations(cold), (
                    f"registry diverged on {args[0]} after {script}"
                )
        assert registry.members(uri) == set(held)


class TestBoundSoundness:
    @given(advertisement_sets(), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_bounded_peers_are_subset(self, ads, bound):
        annotated = route_query(PATTERN, ads, SCHEMA)
        trimmed = apply_peer_bound(
            annotated, QueryConstraints(max_peers_per_pattern=bound)
        )
        for path_pattern in PATTERN:
            full = set(annotated.peers_for(path_pattern))
            bounded = set(trimmed.peers_for(path_pattern))
            assert bounded <= full
            assert len(bounded) <= bound
            # the bound never empties a pattern that had any peer
            if full:
                assert bounded
