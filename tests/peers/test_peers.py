"""Tests for peer roles: base machinery, clients, simple and super peers."""

import pytest

from repro.errors import PeerError
from repro.core.algebra import Scan
from repro.execution.operators import vunion_all_distinct
from repro.net import Message, Network
from repro.peers import (
    Advertise,
    AdvertisementRequest,
    ClientPeer,
    Peer,
    PeerBase,
    QuerySubmit,
    RouteRequest,
    SONRegistry,
    SimplePeer,
    SuperPeer,
)
from repro.peers.protocol import Goodbye
from repro.rdf import Graph
from repro.rdf.dictionary import TermDictionary
from repro.rvl import ActiveSchema, parse_view
from repro.rql.pattern import SchemaPath
from repro.workloads.paper import (
    N1,
    PAPER_QUERY,
    PAPER_VIEW,
    paper_peer_bases,
    paper_query_pattern,
    paper_schema,
)


@pytest.fixture
def schema():
    return paper_schema()


@pytest.fixture
def network():
    return Network()


class TestPeerBase:
    def test_active_schema_from_materialised_base(self, schema):
        bases = paper_peer_bases()
        base = PeerBase(bases["P2"], schema)
        advertisement = base.active_schema("P2")
        assert advertisement.covers_property(N1.prop1)
        assert not advertisement.covers_property(N1.prop2)

    def test_active_schema_from_views(self, schema):
        base = PeerBase(Graph(), schema, views=[parse_view(PAPER_VIEW)])
        advertisement = base.active_schema("P4")
        assert advertisement.covers_property(N1.prop4)

    def test_evaluate_scan(self, schema):
        bases = paper_peer_bases()
        base = PeerBase(bases["P3"], schema)
        pattern = paper_query_pattern(schema).patterns[1]
        assert len(base.evaluate_scan(Scan((pattern,), "P3"), TermDictionary())) == 4


class TestPeerDispatch:
    def test_unknown_payload_raises(self, network, schema):
        peer = Peer("A")
        peer.join(network)

        class Strange:
            pass

        with pytest.raises(PeerError):
            peer.receive(Message("A", "A", Strange()), network)

    def test_send_requires_join(self):
        with pytest.raises(PeerError):
            Peer("A").send("B", "x")

    def test_local_scan_without_base_is_empty(self, schema):
        peer = Peer("A")
        pattern = paper_query_pattern(schema).root
        assert len(peer.local_scan(Scan((pattern,), "A"))) == 0

    def test_composite_scan_without_base_spans_every_pattern(self, schema):
        """``(Q1 ⋈ Q2)@A`` at a peer none of whose bases speaks the
        vocabulary: the empty table has the header a peer that does
        answer produces, so their union at the channel root lines up."""
        patterns = tuple(paper_query_pattern(schema).patterns)
        empty = Peer("A").local_scan(Scan(patterns, "A"))
        assert len(empty) == 0 and empty.columns == ("X", "Y", "Z")
        holder = Peer("P1", PeerBase(paper_peer_bases()["P1"], schema))
        answered = holder.local_scan(Scan(patterns, "P1"))
        assert len(vunion_all_distinct([answered, empty])) == len(answered) == 3


class TestSimplePeerAdvertisements:
    def test_remember_and_expose(self, network, schema):
        peer = SimplePeer("A", PeerBase(Graph(), schema))
        peer.join(network)
        advertisement = ActiveSchema(
            schema.namespace.uri, [SchemaPath(N1.C1, N1.prop1, N1.C2)], peer_id="B"
        )
        peer.receive(Message("B", "A", Advertise(advertisement)), network)
        assert "B" in peer.sons.members(schema.namespace.uri)

    def test_own_advertisement_not_stored(self, network, schema):
        bases = paper_peer_bases()
        peer = SimplePeer("P2", PeerBase(bases["P2"], schema))
        peer.join(network)
        own = peer.own_advertisement()
        peer.remember_advertisement(own)
        assert "P2" not in peer.sons.members(schema.namespace.uri)

    def test_advertisement_request_answered(self, network, schema):
        bases = paper_peer_bases()
        a = SimplePeer("A", PeerBase(bases["P2"], schema))
        b = SimplePeer("B", PeerBase(bases["P3"], schema))
        a.join(network)
        b.join(network)
        b.send("A", AdvertisementRequest("B"))
        network.run()
        assert "A" in b.sons.members(schema.namespace.uri)

    def test_empty_base_advertises_nothing(self, network, schema):
        a = SimplePeer("A", PeerBase(Graph(), schema))
        assert a.own_advertisement() is None


class TestSimplePeerQueries:
    def test_query_answered_from_local_knowledge(self, network, schema):
        bases = paper_peer_bases()
        coordinator = SimplePeer("P1", PeerBase(bases["P1"], schema))
        coordinator.join(network)
        for peer_id in ("P2", "P3", "P4"):
            helper = SimplePeer(peer_id, PeerBase(bases[peer_id], schema))
            helper.join(network)
            coordinator.remember_advertisement(helper.own_advertisement())
        client = ClientPeer("C")
        client.join(network)
        qid = client.submit("P1", PAPER_QUERY)
        network.run()
        result = client.result(qid)
        assert result.error is None
        assert len(result.table) == 9

    def test_parse_error_reported(self, network, schema):
        coordinator = SimplePeer("P1", PeerBase(Graph(), schema))
        coordinator.join(network)
        client = ClientPeer("C")
        client.join(network)
        qid = client.submit("P1", "THIS IS NOT RQL")
        network.run()
        assert client.result(qid).error is not None

    def test_uncovered_query_fails_gracefully(self, network, schema):
        coordinator = SimplePeer("P1", PeerBase(Graph(), schema))
        coordinator.join(network)
        client = ClientPeer("C")
        client.join(network)
        qid = client.submit("P1", PAPER_QUERY)
        network.run()
        result = client.result(qid)
        assert result.error is not None
        assert "Q1" in result.error or "no relevant peers" in result.error


class TestSuperPeer:
    def test_registry_collects_advertisements(self, network, schema):
        super_peer = SuperPeer("SP1", schemas=[schema])
        super_peer.join(network)
        advertisement = ActiveSchema(
            schema.namespace.uri, [SchemaPath(N1.C1, N1.prop1, N1.C2)], peer_id="A"
        )
        super_peer.receive(Message("A", "SP1", Advertise(advertisement)), network)
        assert super_peer.sons.members(schema.namespace.uri) == {"A"}

    def test_deregister(self, network, schema):
        super_peer = SuperPeer("SP1", schemas=[schema])
        super_peer.join(network)
        advertisement = ActiveSchema(
            schema.namespace.uri, [SchemaPath(N1.C1, N1.prop1, N1.C2)], peer_id="A"
        )
        super_peer.receive(Message("A", "SP1", Advertise(advertisement)), network)
        super_peer.receive(Message("A", "SP1", Goodbye("A")), network)
        assert super_peer.sons.members(schema.namespace.uri) == set()

    def test_route_request_answered(self, network, schema):
        super_peer = SuperPeer("SP1", schemas=[schema])
        super_peer.join(network)
        requester = SimplePeer("A", PeerBase(Graph(), schema))
        requester.join(network)
        advertisement = ActiveSchema(
            schema.namespace.uri,
            [SchemaPath(N1.C1, N1.prop1, N1.C2), SchemaPath(N1.C2, N1.prop2, N1.C3)],
            peer_id="B",
        )
        super_peer.receive(Message("B", "SP1", Advertise(advertisement)), network)

        replies = []
        requester.handle_RouteReply = lambda m: replies.append(m.payload)
        pattern = paper_query_pattern(schema)
        requester.send("SP1", RouteRequest("q1", pattern, "A"))
        network.run()
        assert len(replies) == 1
        assert replies[0].annotated.is_fully_annotated()

    def test_backbone_forwarding(self, network, schema):
        directory = {}
        sp1 = SuperPeer("SP1", schemas=[], backbone_directory=directory)
        sp2 = SuperPeer("SP2", schemas=[schema], backbone_directory=directory)
        sp1.join(network)
        sp2.join(network)
        requester = SimplePeer("A", PeerBase(Graph(), schema))
        requester.join(network)
        advertisement = ActiveSchema(
            schema.namespace.uri,
            [SchemaPath(N1.C1, N1.prop1, N1.C2), SchemaPath(N1.C2, N1.prop2, N1.C3)],
            peer_id="B",
        )
        sp2.receive(Message("B", "SP2", Advertise(advertisement)), network)
        replies = []
        requester.handle_RouteReply = lambda m: replies.append(m.payload)
        pattern = paper_query_pattern(schema)
        # ask the wrong super-peer: it must forward via the backbone
        requester.send("SP1", RouteRequest("q1", pattern, "A"))
        network.run()
        assert len(replies) == 1
        assert replies[0].annotated.is_fully_annotated()

    def test_unknown_schema_yields_empty_annotation(self, network, schema):
        sp1 = SuperPeer("SP1", schemas=[])
        sp1.join(network)
        requester = SimplePeer("A", PeerBase(Graph(), schema))
        requester.join(network)
        replies = []
        requester.handle_RouteReply = lambda m: replies.append(m.payload)
        requester.send("SP1", RouteRequest("q1", paper_query_pattern(schema), "A"))
        network.run()
        assert not replies[0].annotated.is_fully_annotated()


class TestSONRegistry:
    def test_groups_by_schema(self, schema):
        registry = SONRegistry()
        registry.add(ActiveSchema("http://a#", peer_id="P1"))
        registry.add(ActiveSchema("http://b#", peer_id="P2"))
        assert registry.sons() == ["http://a#", "http://b#"]
        assert registry.members("http://a#") == {"P1"}

    def test_refresh_replaces_same_peer(self, schema):
        """A refresh is the peer's whole footprint (Section 2.2): the
        property it no longer names must stop annotating."""
        registry = SONRegistry()
        registry.add(
            ActiveSchema("http://a#", [SchemaPath(N1.C1, N1.prop1, N1.C2)], peer_id="P")
        )
        replaced = registry.add(
            ActiveSchema("http://a#", [SchemaPath(N1.C2, N1.prop2, N1.C3)], peer_id="P")
        )
        (advertisement,) = registry.advertisements("http://a#")
        assert [p.property for p in advertisement] == [N1.prop2]
        assert [p.property for p in replaced] == [N1.prop1]

    def test_remove_peer_prunes_empty_sons(self):
        registry = SONRegistry()
        registry.add(ActiveSchema("http://a#", peer_id="P"))
        registry.remove_peer("P")
        assert registry.sons() == []

    def test_sons_of(self):
        registry = SONRegistry()
        registry.add(ActiveSchema("http://a#", peer_id="P"))
        registry.add(ActiveSchema("http://b#", peer_id="P"))
        assert registry.sons_of("P") == ["http://a#", "http://b#"]

    def test_anonymous_rejected(self):
        with pytest.raises(ValueError):
            SONRegistry().add(ActiveSchema("http://a#"))


class TestClientPacing:
    """``ClientPeer.submit`` lets wall-clock time catch up with network
    time at every third submission (the suite's conftest switches that
    off; these tests switch it on over a fake wall clock)."""

    class Clock:
        def __init__(self):
            self.now = 1_000.0
            self.slept = []

        def perf_counter(self):
            return self.now

        def sleep(self, seconds):
            self.slept.append(seconds)
            self.now += seconds

    @pytest.fixture
    def clock(self, monkeypatch):
        import repro.peers.client as client_module

        clock = self.Clock()
        monkeypatch.setattr(client_module, "time", clock)
        monkeypatch.setattr(client_module, "SUBMIT_TIME_SCALE", 0.002)
        return clock

    @staticmethod
    def closed_loop(count):
        from repro import HybridSystem
        from repro.workloads import hybrid_scenario

        system = HybridSystem.from_scenario(hybrid_scenario())
        client = system.add_client()
        submitted_at = []
        for _ in range(count):
            submitted_at.append(system.network.now)
            query_id = client.submit("P1", PAPER_QUERY)
            system.run()
            assert client.result(query_id).error is None
        return system, client, submitted_at

    def test_every_third_submission_waits_for_the_network_time_passed(self, clock):
        _, _, submitted_at = self.closed_loop(9)
        # 1, 2: not compared; 3: starts the schedule; 6 and 9 wait
        assert len(clock.slept) == 2
        assert clock.slept[0] == pytest.approx(0.002 * (submitted_at[5] - submitted_at[2]))
        assert clock.slept[1] == pytest.approx(0.002 * (submitted_at[8] - submitted_at[5]))
        assert submitted_at[5] > submitted_at[2]

    def test_wall_time_already_passed_is_not_waited_again(self, clock):
        system, client, submitted_at = self.closed_loop(5)
        clock.now += 0.001  # the host took 1 ms to compute the answers
        client.submit("P1", PAPER_QUERY)
        owed = 0.002 * (system.network.now - submitted_at[2])
        assert clock.slept == [pytest.approx(owed - 0.001)]

    def test_late_client_starts_a_new_schedule(self, clock):
        system, client, _ = self.closed_loop(5)
        clock.now += 60.0  # idle
        client.submit("P1", PAPER_QUERY)
        system.run()
        assert clock.slept == []

    def test_scale_zero_never_waits(self, clock, monkeypatch):
        import repro.peers.client as client_module

        monkeypatch.setattr(client_module, "SUBMIT_TIME_SCALE", 0.0)
        self.closed_loop(9)
        assert clock.slept == []
