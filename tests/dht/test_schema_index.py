"""Tests for the schema DHT with subsumption information."""

import pytest

from repro.config import PeerConfig
from repro.dht import ChordRing, SchemaDHT
from repro.rql.pattern import SchemaPath
from repro.rvl import ActiveSchema
from repro.systems import AdhocSystem
from repro.workloads.paper import (
    DATA,
    N1,
    PAPER_QUERY,
    paper_active_schemas,
    paper_query_pattern,
    paper_schema,
)


@pytest.fixture
def schema():
    return paper_schema()


@pytest.fixture
def dht(schema):
    index = SchemaDHT(ChordRing(), schema)
    for advertisement in paper_active_schemas(schema).values():
        index.publish(advertisement)
    return index


class TestPublication:
    def test_direct_property_lookup(self, dht):
        peers, _ = dht.lookup_property(N1.prop2)
        assert peers == {"P1", "P3", "P4"}

    def test_subsumption_lookup(self, dht):
        """The P4 advertisement (prop4 only) is indexed under prop1 too
        — the 'subsumption information' of Section 5."""
        peers, _ = dht.lookup_property(N1.prop1)
        assert peers == {"P1", "P2", "P4"}

    def test_subproperty_lookup_excludes_superproperty_peers(self, dht):
        peers, _ = dht.lookup_property(N1.prop4)
        assert peers == {"P4"}

    def test_unpublish(self, dht):
        dht.unpublish("P4")
        peers, _ = dht.lookup_property(N1.prop1)
        assert peers == {"P1", "P2"}

    def test_anonymous_advertisement_rejected(self, schema):
        index = SchemaDHT(ChordRing(), schema)
        with pytest.raises(ValueError):
            index.publish(ActiveSchema(schema.namespace.uri))


class TestPatternRouting:
    def test_route_whole_pattern(self, dht, schema):
        pattern = paper_query_pattern(schema)
        advertisements, hops = dht.route(pattern)
        peers = {a.peer_id for a in advertisements}
        assert peers == {"P1", "P2", "P3", "P4"}
        assert hops >= 0

    def test_advertisements_support_precise_routing(self, dht, schema):
        """The fetched advertisements reproduce the Figure 2 annotation
        when fed to the routing algorithm."""
        from repro.core import route_query

        pattern = paper_query_pattern(schema)
        advertisements, _ = dht.route(pattern)
        annotated = route_query(pattern, advertisements, schema)
        assert annotated.peers_for(pattern.root) == ("P1", "P2", "P4")
        assert annotated.peers_for(pattern.patterns[1]) == ("P1", "P3", "P4")

    def test_hop_accounting_accumulates(self, dht, schema):
        before = dht.lookup_hops
        dht.route(paper_query_pattern(schema))
        assert dht.lookup_hops >= before


class TestAdhocIntegration:
    def test_dht_resolves_distant_provider(self, schema):
        """The chain topology where only discovery helps (depth bench):
        with the DHT the asker finds the provider in O(log N) hops, no
        neighbourhood broadcast needed."""
        from repro.rdf import Graph, TYPE

        provider_base = Graph()
        for i in range(3):
            x, y, z = DATA[f"dhx{i}"], DATA[f"dhy{i}"], DATA[f"dhz{i}"]
            provider_base.add(x, TYPE, N1.C1)
            provider_base.add(y, TYPE, N1.C2)
            provider_base.add(x, N1.prop1, y)
            provider_base.add(y, N1.prop2, z)
            provider_base.add(z, TYPE, N1.C3)
        system = AdhocSystem(
            schema, use_dht=True, config=PeerConfig(max_discovery_depth=1)
        )
        system.add_peer("asker", Graph(), neighbours=("relay",))
        system.add_peer("relay", Graph(), neighbours=("asker", "provider"))
        system.add_peer("provider", provider_base, neighbours=("relay",))
        system.discover_all()
        table = system.query("asker", PAPER_QUERY)
        assert len(table) == 3

    def test_without_dht_same_topology_fails_at_depth1(self, schema):
        from repro.errors import PeerError
        from repro.rdf import Graph, TYPE

        provider_base = Graph()
        provider_base.add(DATA.qx, N1.prop1, DATA.qy)
        provider_base.add(DATA.qy, N1.prop2, DATA.qz)
        system = AdhocSystem(
            schema, use_dht=False, config=PeerConfig(max_discovery_depth=1)
        )
        system.add_peer("asker", Graph(), neighbours=("relay",))
        system.add_peer("relay", Graph(), neighbours=("asker", "provider"))
        system.add_peer("provider", provider_base, neighbours=("relay",))
        system.discover_all()
        with pytest.raises(PeerError):
            system.query("asker", PAPER_QUERY)

    def test_dht_and_figure7_flow_coexist(self):
        """With the DHT on, the Figure 7 scenario still answers."""
        from repro.workloads.paper import adhoc_scenario

        scenario = adhoc_scenario()
        system = AdhocSystem(scenario.schema, use_dht=True)
        for peer_id in scenario.peers:
            system.add_peer(
                peer_id, scenario.bases[peer_id], scenario.neighbours.get(peer_id, ())
            )
        system.discover_all()
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 6
