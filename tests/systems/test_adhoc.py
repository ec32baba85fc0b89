"""Tests for the ad-hoc (self-adaptive SON) architecture (paper Figure 7)."""

import pytest

from repro.errors import PeerError
from repro.systems import AdhocSystem
from repro.workloads.paper import DATA, N1, PAPER_QUERY, adhoc_scenario


@pytest.fixture
def system():
    return AdhocSystem.from_scenario(adhoc_scenario())


class TestFigure7:
    def test_query_answers_through_interleaving(self, system):
        """P1's plan has a Q2 hole; P2 fills it with P5 and executes."""
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 6
        xs = {str(x) for x, _ in table.rows}
        assert any("a2x" in x for x in xs)
        assert any("a3x" in x for x in xs)

    def test_partial_plans_forwarded(self, system):
        system.query("P1", PAPER_QUERY)
        kinds = system.network.metrics.messages_by_kind
        # P1 forwards its partial plan to P2 and P3 (the Q1 answerers)
        assert kinds["PartialPlan"] == 2

    def test_p3_declines(self, system):
        """P3 knows no peer for Q2: its branch fails, mirroring the
        failed P1–P3 channel of Figure 7."""
        system.query("P1", PAPER_QUERY)
        kinds = system.network.metrics.messages_by_kind
        assert kinds["DelegatedResult"] >= 2  # P2 success + P3 decline

    def test_neighbourhood_contents(self):
        system = AdhocSystem.from_scenario(adhoc_scenario())
        p1 = system.peers["P1"]
        # P2, P3 (prop1) and P4 (prop3) all advertise something
        assert p1.sons.members(system.schema.namespace.uri) == {"P2", "P3", "P4"}
        p2 = system.peers["P2"]
        assert "P5" in p2.sons.members(system.schema.namespace.uri)

    def test_results_identical_to_hybrid_semantics(self, system):
        """The ad-hoc answer equals a centralised evaluation."""
        from repro.rql import query as local_query
        from repro.rdf import Graph

        scenario = adhoc_scenario()
        merged = Graph()
        for graph in scenario.bases.values():
            merged.update(graph)
        expected = local_query(PAPER_QUERY, merged, scenario.schema).distinct()
        actual = system.query("P1", PAPER_QUERY)
        assert actual == expected


class TestEdgeCases:
    def test_query_at_knowledgeable_peer_needs_no_forwarding(self, system):
        """P2 knows P5 and itself: it can route Q locally... Q1 also
        needs P3's data, which P2 does not know about — but P2 can
        still build a complete plan from what it knows."""
        table = system.query("P2", PAPER_QUERY)
        assert len(table) >= 3  # at least its own chains

    def test_unanswerable_query_errors_after_deepening(self):
        scenario = adhoc_scenario()
        system = AdhocSystem.from_scenario(scenario)
        # prop3 exists only at P4; a two-hop query over prop2,prop3 needs
        # prop3 ⋈ — ask P3 which knows only P1
        text = (
            f"SELECT X, Y FROM {{X}} n1:prop3 {{Y}}, {{Y}} n1:prop3 {{Z}} "
            f"USING NAMESPACE n1 = &{scenario.schema.namespace.uri}&"
        )
        # P4 has prop3 but no chain of two prop3 hops matches; routing
        # still finds P4, execution returns empty — not an error
        table = system.query("P1", text)
        assert len(table) == 0

    def test_depth_discovery_finds_distant_peer(self):
        """A chain topology where the Q2 answerer is 2 hops away and
        nobody on the path can answer Q1 — forwarding cannot help, only
        k-depth discovery can."""
        scenario = adhoc_scenario()
        system = AdhocSystem(scenario.schema)
        # topology: P1 - M - W ; M has nothing, W answers both patterns
        from repro.rdf import Graph, TYPE

        w = Graph()
        for i in range(2):
            x, y, z = DATA[f"wx{i}"], DATA[f"wy{i}"], DATA[f"wz{i}"]
            w.add(x, TYPE, N1.C1)
            w.add(y, TYPE, N1.C2)
            w.add(x, N1.prop1, y)
            w.add(y, N1.prop2, z)
        system.add_peer("P1", Graph(), neighbours=("M",))
        system.add_peer("M", Graph(), neighbours=("P1", "W"))
        system.add_peer("W", w, neighbours=("M",))
        system.discover_all()
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 2

    def test_failure_gives_error_not_hang(self):
        scenario = adhoc_scenario()
        system = AdhocSystem.from_scenario(scenario)
        system.network.fail_peer("P5")
        with pytest.raises(PeerError):
            system.query("P1", PAPER_QUERY)
