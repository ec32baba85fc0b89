"""Tests for peer departures and advertisement refresh (churn)."""

import pytest

from repro.errors import PeerError
from repro.rdf import Graph, TYPE
from repro.systems import AdhocSystem, HybridSystem
from repro.workloads.paper import (
    DATA,
    N1,
    PAPER_QUERY,
    adhoc_scenario,
    hybrid_scenario,
    paper_peer_bases,
    paper_schema,
)


class TestHybridDeparture:
    @pytest.fixture
    def system(self):
        system = HybridSystem(paper_schema())
        system.add_super_peer("SP1")
        for peer_id, graph in paper_peer_bases().items():
            system.add_peer(peer_id, graph, "SP1")
        system.run()
        return system

    def test_goodbye_deregisters_at_super_peer(self, system):
        sp1 = system.super_peers["SP1"]
        uri = system.schema.namespace.uri
        assert "P2" in sp1.sons.members(uri)
        system.peers["P2"].leave()
        system.run()
        assert "P2" not in sp1.sons.members(uri)

    def test_queries_skip_departed_peer(self, system):
        system.peers["P2"].leave()
        system.run()
        table = system.query("P1", PAPER_QUERY)
        # P2's four bridge chains are gone; the rest answer
        assert len(table) == 5
        assert system.network.metrics.messages_received.get("P2", 0) <= 2

    def test_departure_of_sole_provider_fails_queries(self):
        scenario = hybrid_scenario()
        system = HybridSystem.from_scenario(scenario)
        system.run()
        system.peers["P5"].leave()  # the only prop2 provider
        system.run()
        with pytest.raises(PeerError):
            system.query("P1", PAPER_QUERY)


class TestAdhocDeparture:
    def test_goodbye_clears_neighbour_knowledge(self):
        system = AdhocSystem.from_scenario(adhoc_scenario())
        p1 = system.peers["P1"]
        uri = system.schema.namespace.uri
        assert "P3" in p1.sons.members(uri)
        system.peers["P3"].leave()
        system.run()
        assert "P3" not in p1.sons.members(uri)

    def test_departed_peer_not_planned(self):
        system = AdhocSystem.from_scenario(adhoc_scenario())
        system.peers["P3"].leave()
        system.run()
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 3  # only P2's chains remain

    def test_dht_entries_removed_on_leave(self):
        scenario = adhoc_scenario()
        system = AdhocSystem(scenario.schema, use_dht=True)
        for peer_id in scenario.peers:
            system.add_peer(
                peer_id, scenario.bases[peer_id], scenario.neighbours.get(peer_id, ())
            )
        system.discover_all()
        peers, _ = system.dht.lookup_property(N1.prop2)
        assert "P5" in peers
        system.peers["P5"].leave()
        system.run()
        peers, _ = system.dht.lookup_property(N1.prop2)
        assert "P5" not in peers


class TestAdvertisementRefresh:
    @pytest.fixture
    def system(self):
        system = HybridSystem(paper_schema())
        system.add_super_peer("SP1")
        for peer_id, graph in paper_peer_bases().items():
            system.add_peer(peer_id, graph, "SP1")
        system.run()
        return system

    def test_extensional_churn_is_silent(self, system):
        """Adding more statements of an already-populated property does
        not re-advertise (the Section 2.2 economy)."""
        peer = system.peers["P2"]
        peer.base.graph.add(DATA.extra_x, N1.prop1, DATA.extra_y)
        assert peer.refresh_advertisement() is False

    def test_intensional_change_readvertises(self, system):
        """Populating a brand-new property pushes a fresh advertisement
        and routing immediately uses it."""
        peer = system.peers["P2"]
        peer.base.graph.add(DATA.p2y, TYPE, N1.C2)
        peer.base.graph.add(DATA.p2z, TYPE, N1.C3)
        peer.base.graph.add(DATA.p2y, N1.prop2, DATA.p2z)
        assert peer.refresh_advertisement() is True
        system.run()
        sp1 = system.super_peers["SP1"]
        uri = system.schema.namespace.uri
        advertisement = dict(
            (a.peer_id, a) for a in sp1.sons.advertisements(uri)
        )["P2"]
        assert advertisement.covers_property(N1.prop2)

    def test_emptying_a_property_readvertises(self, system):
        peer = system.peers["P3"]
        for triple in list(peer.base.graph.triples(None, N1.prop2, None)):
            peer.base.graph.remove_triple(triple)
        assert peer.refresh_advertisement() is True

    def test_refresh_without_base_is_noop(self):
        from repro.peers.simple import SimplePeer

        assert SimplePeer("bare").refresh_advertisement() is False
