"""End-to-end execution with cost-model operator placement
(``use_shipping=True``): answers must match the default data-shipping
execution regardless of where joins land."""

import pytest

from repro.config import PeerConfig
from repro.systems import AdhocSystem, HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.paper import PAPER_QUERY, adhoc_scenario, paper_peer_bases, paper_schema
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import generate_schema


class TestHybridWithShipping:
    def build(self, use_shipping: bool) -> HybridSystem:
        system = HybridSystem(paper_schema(), config=PeerConfig(use_shipping=use_shipping))
        system.add_super_peer("SP1")
        for peer_id, graph in paper_peer_bases().items():
            system.add_peer(peer_id, graph, "SP1")
        return system

    def test_same_answer_as_data_shipping(self):
        reference = self.build(False).query("P1", PAPER_QUERY)
        shipped = self.build(True).query("P1", PAPER_QUERY)
        assert shipped == reference

    def test_statistics_can_push_joins_remote(self):
        """With costly coordinator links recorded, the join lands at a
        contributing peer; the answer is unchanged."""
        from repro.core import Statistics

        stats = Statistics(default_cardinality=1000, join_selectivity=0.0001)
        for other in ("P2", "P3", "P4"):
            stats.set_link_cost("P1", other, 50.0)
        stats.set_link_cost("P2", "P3", 0.01)
        stats.set_link_cost("P2", "P4", 0.01)
        stats.set_link_cost("P3", "P4", 0.01)
        system = HybridSystem(
            paper_schema(), statistics=stats, config=PeerConfig(use_shipping=True)
        )
        system.add_super_peer("SP1")
        for peer_id, graph in paper_peer_bases().items():
            system.add_peer(peer_id, graph, "SP1")
        table = system.query("P1", PAPER_QUERY)
        reference = self.build(False).query("P1", PAPER_QUERY)
        assert table == reference

    def test_shipping_with_synthetic_workload(self):
        synth = generate_schema(chain_length=3, refinement_fraction=0.5, seed=6)
        gen = generate_bases(
            synth, [f"P{i}" for i in range(6)], Distribution.MIXED, seed=7
        )

        def run(use_shipping):
            system = HybridSystem(
                synth.schema, config=PeerConfig(use_shipping=use_shipping)
            )
            system.add_super_peer("SP1")
            for peer_id, graph in gen.bases.items():
                system.add_peer(peer_id, graph, "SP1")
            return system.query("P0", chain_query(synth, 0, 2))

        assert run(True) == run(False)


class TestAdhocWithShipping:
    def test_figure7_with_shipping(self):
        scenario = adhoc_scenario()
        system = AdhocSystem(scenario.schema, config=PeerConfig(use_shipping=True))
        for peer_id in scenario.peers:
            system.add_peer(
                peer_id, scenario.bases[peer_id], scenario.neighbours.get(peer_id, ())
            )
        system.discover_all()
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 6

    def test_shipping_with_failures(self):
        system = HybridSystem(paper_schema(), config=PeerConfig(use_shipping=True))
        system.add_super_peer("SP1")
        for peer_id, graph in paper_peer_bases().items():
            system.add_peer(peer_id, graph, "SP1")
        system.run()
        system.network.fail_peer("P2")
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 5  # P2's bridge chains lost, rest answered
