"""End-to-end execution with cost-model operator placement
(``cost_based=True``): answers must match the default data-shipping
execution regardless of where joins land."""

from repro.config import PeerConfig
from repro.core import Statistics
from repro.systems import AdhocSystem, HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.paper import PAPER_QUERY, adhoc_scenario, paper_peer_bases, paper_schema
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import generate_schema


class HandSetStatistics(Statistics):
    """Statistics that keep their hand-set cardinalities: the summaries
    cost-based peers advertise are not folded in, so the link costs
    decide the placement."""

    def fold_summary(self, summary) -> None:
        pass


def costly_coordinator_links() -> Statistics:
    """P1's links cost 5000x the others' and every join is selective, so
    placement pushes joins to the contributing peers."""
    stats = HandSetStatistics(default_cardinality=1000, join_selectivity=0.0001)
    for other in ("P2", "P3", "P4"):
        stats.set_link_cost("P1", other, 50.0)
    for a, b in (("P2", "P3"), ("P2", "P4"), ("P3", "P4")):
        stats.set_link_cost(a, b, 0.01)
    return stats


def channel_roots(system) -> set:
    """The peers that rooted a channel, read off the traces."""
    collector = system.network.tracer.collector
    return {
        span.peer_id
        for trace_id in collector.trace_ids()
        for span in collector.spans(trace_id)
        if span.name == "channel"
    }


class TestHybridWithShipping:
    def build(self, cost_based: bool) -> HybridSystem:
        system = HybridSystem(paper_schema(), config=PeerConfig(cost_based=cost_based))
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
        system = HybridSystem(
            paper_schema(),
            statistics=costly_coordinator_links(),
            config=PeerConfig(cost_based=True),
        )
        system.add_super_peer("SP1")
        for peer_id, graph in paper_peer_bases().items():
            system.add_peer(peer_id, graph, "SP1")
        table = system.query("P1", PAPER_QUERY)
        reference = self.build(False).query("P1", PAPER_QUERY)
        assert table == reference
        assert channel_roots(system) - {"P1"}

    def test_shipping_with_synthetic_workload(self):
        synth = generate_schema(chain_length=3, refinement_fraction=0.5, seed=6)
        gen = generate_bases(
            synth, [f"P{i}" for i in range(6)], Distribution.MIXED, seed=7
        )

        def run(cost_based):
            system = HybridSystem(
                synth.schema, config=PeerConfig(cost_based=cost_based)
            )
            system.add_super_peer("SP1")
            for peer_id, graph in gen.bases.items():
                system.add_peer(peer_id, graph, "SP1")
            return system.query("P0", chain_query(synth, 0, 2))

        assert run(True) == run(False)


class TestAdhocWithShipping:
    def test_figure7_with_shipping(self):
        scenario = adhoc_scenario()
        system = AdhocSystem(scenario.schema, config=PeerConfig(cost_based=True))
        for peer_id in scenario.peers:
            system.add_peer(
                peer_id, scenario.bases[peer_id], scenario.neighbours.get(peer_id, ())
            )
        system.discover_all()
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 6

    def test_shipping_with_failures(self):
        system = HybridSystem(paper_schema(), config=PeerConfig(cost_based=True))
        system.add_super_peer("SP1")
        for peer_id, graph in paper_peer_bases().items():
            system.add_peer(peer_id, graph, "SP1")
        system.run()
        system.network.fail_peer("P2")
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 5  # P2's bridge chains lost, rest answered
