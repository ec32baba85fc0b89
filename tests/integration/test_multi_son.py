"""Tests for peers belonging to several SONs (paper Section 3.1:
"a simple-peer can be connected to multiple super-peers when it
provides descriptions conforming to more than one schema")."""

import pytest

from repro.rdf import Graph, Namespace, Schema, TYPE
from repro.systems import HybridSystem
from repro.workloads.paper import DATA, N1, PAPER_QUERY, paper_schema

# a second, unrelated community schema (a "music" SON)
MU = Namespace("http://ics.forth.gr/sqpeer/music#")


def music_schema() -> Schema:
    schema = Schema(MU, "music")
    for name in ("Artist", "Album"):
        schema.add_class(MU[name])
    schema.add_property(MU.recorded, MU.Artist, MU.Album)
    return schema


MUSIC_QUERY = (
    "SELECT A, B FROM {A} mu:recorded {B} "
    f"USING NAMESPACE mu = &{MU.uri}&"
)


@pytest.fixture
def system():
    """SP-N1 serves the paper SON, SP-MU serves the music SON; the
    'hybrid' peer is a member of both."""
    n1_schema = paper_schema()
    system = HybridSystem(n1_schema)
    system.add_super_peer("SP-N1")
    system.add_super_peer("SP-MU", schemas=[music_schema()])

    n1_graph = Graph()
    n1_graph.add(DATA.mx, TYPE, N1.C1)
    n1_graph.add(DATA.my, TYPE, N1.C2)
    n1_graph.add(DATA.mx, N1.prop1, DATA.my)
    n1_graph.add(DATA.my, N1.prop2, DATA.mz)
    n1_graph.add(DATA.mz, TYPE, N1.C3)

    music_graph = Graph()
    music_graph.add(DATA.artist1, TYPE, MU.Artist)
    music_graph.add(DATA.album1, TYPE, MU.Album)
    music_graph.add(DATA.artist1, MU.recorded, DATA.album1)

    system.add_peer(
        "hybrid",
        n1_graph,
        "SP-N1",
        secondary=[(music_graph, music_schema(), "SP-MU")],
    )
    system.add_peer("plain", Graph(), "SP-N1")
    return system


class TestMultiSONMembership:
    def test_advertised_to_both_super_peers(self, system):
        system.run()
        assert "hybrid" in system.super_peers["SP-N1"].sons.members(N1.uri)
        assert "hybrid" in system.super_peers["SP-MU"].sons.members(MU.uri)

    def test_not_cross_registered(self, system):
        system.run()
        assert "hybrid" not in system.super_peers["SP-MU"].sons.members(N1.uri)
        assert "hybrid" not in system.super_peers["SP-N1"].sons.members(MU.uri)

    def test_answers_primary_schema_query(self, system):
        table = system.query("plain", PAPER_QUERY)
        assert len(table) == 1

    def test_answers_secondary_schema_query(self, system):
        """The coordinator parses the music query against the peer's
        secondary schema and routes it via SP-MU."""
        table = system.query("hybrid", MUSIC_QUERY)
        assert len(table) == 1
        assert table.rows[0][0].local_name == "artist1"

    def test_secondary_query_via_foreign_peer_uses_backbone(self, system):
        """'plain' speaks only n1; it cannot even parse the music
        query — the submission fails with a schema error."""
        from repro.errors import PeerError

        with pytest.raises(PeerError):
            system.query("plain", MUSIC_QUERY)

    def test_departure_clears_both_sons(self, system):
        system.run()
        system.peers["hybrid"].leave()
        system.run()
        assert "hybrid" not in system.super_peers["SP-N1"].sons.members(N1.uri)
        assert "hybrid" not in system.super_peers["SP-MU"].sons.members(MU.uri)
