"""Tests for request coalescing: unit behaviour and end-to-end flow."""

from repro.config import PeerConfig
from repro.cache import QueryCoalescer
from repro.workloads.paper import PAPER_QUERY, paper_peer_bases, paper_schema
from repro.systems import HybridSystem


class TestQueryCoalescer:
    def test_first_is_leader(self):
        coalescer = QueryCoalescer()
        assert coalescer.admit("k", "q1", "req1") is None
        assert coalescer.in_flight() == 1

    def test_second_parks_behind_leader(self):
        coalescer = QueryCoalescer()
        coalescer.admit("k", "q1", "req1")
        assert coalescer.admit("k", "q2", "req2") == "q1"
        assert coalescer.parked() == 1

    def test_distinct_keys_fly_independently(self):
        coalescer = QueryCoalescer()
        assert coalescer.admit("a", "q1", "r1") is None
        assert coalescer.admit("b", "q2", "r2") is None
        assert coalescer.in_flight() == 2

    def test_complete_releases_followers_in_order(self):
        coalescer = QueryCoalescer()
        coalescer.admit("k", "q1", "r1")
        coalescer.admit("k", "q2", "r2")
        coalescer.admit("k", "q3", "r3")
        assert coalescer.complete("q1") == ["r2", "r3"]
        assert coalescer.in_flight() == 0
        assert coalescer.parked() == 0

    def test_complete_retires_key(self):
        coalescer = QueryCoalescer()
        coalescer.admit("k", "q1", "r1")
        coalescer.complete("q1")
        # a later identical query starts a fresh flight
        assert coalescer.admit("k", "q4", "r4") is None

    def test_complete_is_idempotent(self):
        coalescer = QueryCoalescer()
        coalescer.admit("k", "q1", "r1")
        coalescer.admit("k", "q2", "r2")
        assert coalescer.complete("q1") == ["r2"]
        assert coalescer.complete("q1") == []

    def test_non_leader_completion_releases_nothing(self):
        coalescer = QueryCoalescer()
        coalescer.admit("k", "q1", "r1")
        coalescer.admit("k", "q2", "r2")
        assert coalescer.complete("q2") == []
        assert coalescer.parked() == 1


def _system(**options):
    system = HybridSystem(paper_schema(), config=PeerConfig(**options))
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    return system


class TestCoalescingEndToEnd:
    def test_concurrent_identical_queries_share_one_flight(self):
        system = _system()
        client = system.add_client()
        first = client.submit("P1", PAPER_QUERY)
        second = client.submit("P1", PAPER_QUERY)
        system.run()
        result_a = client.result(first)
        result_b = client.result(second)
        assert result_a is not None and result_a.error is None
        assert result_b is not None and result_b.error is None
        assert len(result_a.table) == len(result_b.table)
        assert system.network.metrics.coalesced_queries == 1
        # the follower triggered no second routing round-trip
        assert system.network.metrics.messages_by_kind["RouteRequest"] == 1

    def test_follower_latency_recorded(self):
        system = _system()
        client = system.add_client()
        finished = []
        system.network.metrics.on_query_latency = (
            lambda query_id, latency: finished.append(query_id)
        )
        first = client.submit("P1", PAPER_QUERY)
        second = client.submit("P1", PAPER_QUERY)
        system.run()
        assert sorted(finished) == sorted([first, second])
        assert system.network.metrics.latency_histogram.count == 2

    def test_sequential_queries_do_not_coalesce(self):
        system = _system()
        first = system.query("P1", PAPER_QUERY)
        second = system.query("P1", PAPER_QUERY)
        assert len(first) == len(second)
        assert system.network.metrics.coalesced_queries == 0

    def test_different_constraints_fly_separately(self):
        system = _system()
        client = system.add_client()
        first = client.submit("P1", PAPER_QUERY)
        second = client.submit("P1", PAPER_QUERY, limit=1)
        system.run()
        assert system.network.metrics.coalesced_queries == 0
        assert len(client.result(first).table) >= 1
        assert len(client.result(second).table) == 1

    def test_no_cache_disables_coalescing(self):
        system = _system(cache_enabled=False)
        client = system.add_client()
        first = client.submit("P1", PAPER_QUERY)
        second = client.submit("P1", PAPER_QUERY)
        system.run()
        assert system.network.metrics.coalesced_queries == 0
        assert client.result(first) is not None
        assert client.result(second) is not None
