"""The query coordinator's single exit and its per-query state.

Every way a coordination ends goes through
``QueryCoordinator.finalize``, which answers by message (a client), by
continuation (a standing query's re-evaluation) or not at all (a query
submitted locally, ``reply_to`` the peer itself) — and everything kept
while a query runs dies with it.
"""

from collections import deque

from repro.config import PeerConfig
from repro.net import Message
from repro.peers import QuerySubmit
from repro.systems import HybridSystem
from repro.workloads.paper import PAPER_QUERY, paper_peer_bases, paper_schema

GARBAGE = "THIS IS NOT RQL"


def build_system(**options) -> HybridSystem:
    system = HybridSystem(paper_schema(), config=PeerConfig(**options))
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    system.run()
    return system


class TestParseFailure:
    def test_client_gets_the_error_and_a_resubmit_replays_it(self):
        system = build_system()
        client = system.add_client("C")
        query_id = client.submit("P1", GARBAGE)
        system.run()
        assert client.result(query_id).error
        metrics = system.network.metrics
        assert metrics.messages_by_kind["QueryResult"] == 1
        # the failed id is remembered like an answered one: a duplicate
        # submit is served the same error, not coordinated again
        client.send("P1", QuerySubmit(query_id, GARBAGE, "C"))
        system.run()
        assert metrics.messages_by_kind["QueryResult"] == 2
        assert metrics.latency_histogram.count == 1
        assert system.peers["P1"].coordinator.in_flight() == 0

    def test_locally_submitted_query_gets_no_reply_message(self):
        """``reply_to`` the coordinating peer itself: nothing to send —
        the peer must not message itself a QueryResult it cannot
        handle."""
        system = build_system()
        peer = system.peers["P1"]
        submit = QuerySubmit("local-1", GARBAGE, "P1")
        system.network.send(Message("P1", "P1", submit))
        system.run()
        assert system.network.metrics.messages_by_kind.get("QueryResult", 0) == 0
        assert peer.coordinator.in_flight() == 0
        assert not system.network.metrics.inflight_query_ids()

    def test_standing_query_takes_the_error_through_its_continuation(self):
        system = build_system()
        client = system.add_client("C")
        query_id = client.subscribe("P1", GARBAGE)
        system.run()
        assert query_id in client.continuous_errors
        assert system.network.metrics.messages_by_kind.get("QueryResult", 0) == 0
        assert system.peers["P1"].coordinator.in_flight() == 0


def _channel_keyed_state(holder) -> dict:
    """Container attributes of ``holder`` holding channel ids."""
    found = {}
    for name, value in vars(holder).items():
        if isinstance(value, (dict, set, frozenset, list, tuple, deque)):
            ids = [key for key in value if isinstance(key, str) and "#" in key]
            if ids:
                found[name] = ids
    return found


def test_monitored_queries_leave_no_per_channel_state():
    """Stall counters of channels that completed normally used to stay
    on the peer for ever (4 per paper query)."""
    system = build_system(monitor_channels=True, monitor_interval=1.0)
    for _ in range(3):
        assert len(system.query("P1", PAPER_QUERY)) == 9
    peer = system.peers["P1"]
    assert len(peer.channels) == 0
    assert _channel_keyed_state(peer) == {}
    assert _channel_keyed_state(peer.coordinator) == {}
