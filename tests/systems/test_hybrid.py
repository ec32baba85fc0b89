"""Tests for the hybrid (super-peer) architecture (paper Figure 6)."""

import pytest

from repro.config import PeerConfig
from repro.errors import PeerError
from repro.systems import HybridSystem
from repro.workloads.paper import DATA, N1, PAPER_QUERY, hybrid_scenario


@pytest.fixture
def system():
    return HybridSystem.from_scenario(hybrid_scenario())


class TestFigure6:
    def test_query_answers(self, system):
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 6  # P2 x 3 chains + P3 x 3 chains via P5
        xs = {str(x) for x, _ in table.rows}
        assert any("h2x" in x for x in xs)
        assert any("h3x" in x for x in xs)

    def test_routing_happens_at_super_peer(self, system):
        system.query("P1", PAPER_QUERY)
        kinds = system.network.metrics.messages_by_kind
        assert kinds["RouteRequest"] == 1
        assert kinds["RouteReply"] == 1

    def test_channels_deployed_to_relevant_peers_only(self, system):
        system.query("P1", PAPER_QUERY)
        kinds = system.network.metrics.messages_by_kind
        # P2, P3 answer Q1; P5 answers Q2: three subplan shipments
        assert kinds["SubPlanPacket"] == 3
        received = system.network.metrics.messages_received
        # irrelevant P4 got nothing beyond its own join-time advertisement
        assert received.get("P4", 0) == 0

    def test_advertisements_pushed_at_join(self):
        system = HybridSystem.from_scenario(hybrid_scenario())
        system.run()
        sp1 = system.super_peers["SP1"]
        # P1 and P4 hold only prop3 data; all five advertise something
        assert sp1.sons.members(system.schema.namespace.uri) == {
            "P1", "P2", "P3", "P4", "P5",
        }

    def test_complete_plan_no_holes(self, system):
        """Super-peers know the whole SON: plans are complete (3.1)."""
        table = system.query("P1", PAPER_QUERY)
        assert table is not None  # an error would have raised


class TestHarness:
    def test_query_via_other_peer_same_answer(self, system):
        t1 = system.query("P1", PAPER_QUERY)
        t2 = system.query("P4", PAPER_QUERY)
        assert t1 == t2

    def test_unknown_super_peer_rejected(self):
        scenario = hybrid_scenario()
        system = HybridSystem(scenario.schema)
        with pytest.raises(PeerError):
            system.add_peer("PX", scenario.bases["P2"], "SP-missing")

    def test_failed_query_raises(self):
        scenario = hybrid_scenario()
        system = HybridSystem(scenario.schema)
        system.add_super_peer("SP1")
        system.add_peer("P1", scenario.bases["P1"], "SP1")
        with pytest.raises(PeerError):
            system.query("P1", PAPER_QUERY)  # nobody answers prop1/prop2

    def test_latency_recorded(self, system):
        system.query("P1", PAPER_QUERY)
        assert system.network.metrics.mean_latency() > 0


class TestAdaptivity:
    def test_peer_failure_triggers_replan(self):
        scenario = hybrid_scenario()
        system = HybridSystem.from_scenario(scenario)
        system.run()  # settle advertisements
        system.network.fail_peer("P2")
        table = system.query("P1", PAPER_QUERY)
        # P3's chains still answer; P2's three are lost
        assert len(table) == 3
        xs = {str(x) for x, _ in table.rows}
        assert all("h3x" in x for x in xs)

    def test_unrepairable_failure_reports_error(self):
        scenario = hybrid_scenario()
        system = HybridSystem.from_scenario(scenario)
        system.run()
        system.network.fail_peer("P5")  # only prop2 provider
        with pytest.raises(PeerError):
            system.query("P1", PAPER_QUERY)

    def test_non_adaptive_mode_fails_fast(self):
        scenario = hybrid_scenario()
        system = HybridSystem.from_scenario(scenario, config=PeerConfig(adaptive=False))
        system.run()
        system.network.fail_peer("P2")
        with pytest.raises(PeerError):
            system.query("P1", PAPER_QUERY)
