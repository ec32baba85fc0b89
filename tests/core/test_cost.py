"""Tests for statistics and the cost model."""

import pytest

from repro.core import CostModel, Statistics, build_plan, route_query
from repro.core.algebra import Hole, Join, Scan, Union
from repro.workloads.paper import (
    N1,
    paper_active_schemas,
    paper_query_pattern,
    paper_schema,
)


@pytest.fixture
def schema():
    return paper_schema()


@pytest.fixture
def patterns(schema):
    return paper_query_pattern(schema).patterns


@pytest.fixture
def stats():
    s = Statistics(default_cardinality=100, join_selectivity=0.01)
    s.set_cardinality("P1", N1.prop1, 50)
    s.set_cardinality("P2", N1.prop1, 200)
    s.set_link_cost("P1", "P2", 2.0)
    s.set_load("P2", load=4, slots=2)
    return s


class TestStatistics:
    def test_recorded_cardinality(self, stats):
        assert stats.cardinality("P1", N1.prop1) == 50

    def test_default_cardinality(self, stats):
        assert stats.cardinality("P9", N1.prop1) == 100

    def test_link_cost_symmetric(self, stats):
        assert stats.link_cost("P1", "P2") == 2.0
        assert stats.link_cost("P2", "P1") == 2.0

    def test_self_link_free(self, stats):
        assert stats.link_cost("P1", "P1") == 0.0

    def test_default_link_cost(self, stats):
        assert stats.link_cost("P1", "P9") == 1.0

    def test_load_factor(self, stats):
        assert stats.load_factor("P2") == 3.0  # 1 + 4/2
        assert stats.load_factor("P9") == 1.0

    def test_known_peers(self, stats):
        assert "P1" in stats.known_peers()
        assert "P2" in stats.known_peers()


class TestCardinalityEstimation:
    def test_scan(self, stats, patterns):
        model = CostModel(stats)
        assert model.cardinality(Scan((patterns[0],), "P1")) == 50

    def test_composite_scan_applies_selectivity(self, stats, patterns):
        model = CostModel(stats)
        composite = Scan((patterns[0], patterns[1]), "P1")
        assert model.cardinality(composite) == pytest.approx(50 * 100 * 0.01)

    def test_union_sums(self, stats, patterns):
        model = CostModel(stats)
        union = Union([Scan((patterns[0],), "P1"), Scan((patterns[0],), "P2")])
        assert model.cardinality(union) == 250

    def test_join_scales_by_selectivity(self, stats, patterns):
        model = CostModel(stats)
        join = Join([Scan((patterns[0],), "P1"), Scan((patterns[1],), "P3")])
        assert model.cardinality(join) == pytest.approx(50 * 100 * 0.01)

    def test_hole_is_zero(self, patterns):
        assert CostModel().cardinality(Hole(patterns[0])) == 0.0


class TestPlanCost:
    def test_local_scan_ships_nothing(self, stats, patterns):
        model = CostModel(stats)
        estimate = model.plan_cost(Scan((patterns[0],), "P1"), "P1")
        assert estimate.bytes_shipped > 0  # payload accounted
        # but time has no transfer component (link cost 0)
        assert estimate.time < 1.0

    def test_remote_scan_costs_more(self, stats, patterns):
        model = CostModel(stats)
        local = model.plan_cost(Scan((patterns[0],), "P1"), "P1")
        remote = model.plan_cost(Scan((patterns[0],), "P1"), "P2")
        assert remote.time > local.time

    def test_bigger_plan_more_messages(self, schema, stats):
        model = CostModel(stats)
        pattern = paper_query_pattern(schema)
        ads = paper_active_schemas(schema)
        plan = build_plan(route_query(pattern, ads.values(), schema))
        estimate = model.plan_cost(plan, "P1")
        # six scans, but the unit of shipping is the destination: P2,
        # P3 and P4 each cost a subplan message and a result stream
        assert estimate.messages == 6
        # P1's own scans cost no message at all
        assert model.plan_cost(plan.children()[0], "P1").messages == 4

    @pytest.mark.parametrize("case", ["figure-3", "flat-fan-out"])
    def test_estimated_messages_are_the_messages_sent(self, schema, case, monkeypatch):
        """Estimated vs actual: the two messages the model charges per
        distinct remote destination — subplans out, results back — are
        what a channel puts on the wire when the reply fits one packet,
        however many scans the destination runs (Figure 3's P4 answers
        both path patterns over one channel)."""
        from repro.core.optimizer import OptimizationTrace
        from repro.peers import coordinator
        from repro.rdf import TYPE, Graph
        from repro.rql import extract_pattern, parse_query
        from repro.systems import HybridSystem
        from repro.workloads.paper import DATA, PAPER_QUERY, paper_peer_bases

        if case == "figure-3":
            bases, text = paper_peer_bases(), PAPER_QUERY
        else:  # six peers answer one pattern; the coordinator holds nothing
            bases, text = {"P1": Graph()}, PAPER_QUERY.replace(", {Y} n1:prop2 {Z}", "")
            for index in range(2, 8):
                graph = bases[f"P{index}"] = Graph()
                subject, obj = DATA[f"x{index}"], DATA[f"y{index}"]
                graph.add(subject, TYPE, N1.C1)
                graph.add(obj, TYPE, N1.C2)
                graph.add(subject, N1.prop1, obj)
        # the coordinator runs the plan exactly as ``build_plan`` built it
        planned = []
        monkeypatch.setattr(
            coordinator,
            "optimize",
            lambda plan, *args, **kwargs: planned.append(plan) or OptimizationTrace(plan),
        )
        system = HybridSystem(schema)
        system.add_super_peer("SP1")
        for peer_id, graph in bases.items():
            system.add_peer(peer_id, graph, "SP1")
        system.network.run()
        before = dict(system.network.metrics.messages_by_kind)
        assert len(system.query("P1", text)) > 0

        ads = [p.base.active_schema(pid) for pid, p in system.peers.items()]
        pattern = extract_pattern(parse_query(text), schema)
        plan = build_plan(route_query(pattern, ads, schema))
        assert planned == [plan]
        scans = [node for node in plan.walk() if isinstance(node, Scan)]
        remote = [scan for scan in scans if scan.peer_id != "P1"]
        assert (len(scans), len(remote)) == ((6, 4) if case == "figure-3" else (6, 6))
        destinations = {scan.peer_id for scan in remote}
        assert len(destinations) == (3 if case == "figure-3" else 6)
        estimated = CostModel().plan_cost(plan, "P1").messages
        assert estimated == 2 * len(destinations)
        kinds = system.network.metrics.messages_by_kind
        sent = {kind: kinds[kind] - before.get(kind, 0) for kind in kinds}
        assert sent["SubPlanPacket"] == sent["DataPacket"] == len(destinations)
        assert system.network.metrics.subplans_shipped == len(remote)
        # ... and nothing else crosses a channel: what is left is the
        # client's round trip and the routing round trip
        around = {"QuerySubmit", "QueryResult", "RouteRequest", "RouteReply"}
        assert sum(n for kind, n in sent.items() if kind not in around) == estimated

    def test_plan_cost_messages_are_the_channel_messages_of_a_default_system(
        self, schema
    ):
        """The paper's two-pattern query on a default ``HybridSystem``
        (optimised plan, default batch size): the messages
        ``plan_cost`` estimates for the plan the coordinator ran are the
        ``SubPlanPacket``s and ``DataPacket``s it put on the wire."""
        from repro.rql import extract_pattern, parse_query
        from repro.systems import HybridSystem
        from repro.workloads.paper import PAPER_QUERY, paper_peer_bases

        system = HybridSystem(schema)
        system.add_super_peer("SP1")
        for peer_id, graph in paper_peer_bases().items():
            system.add_peer(peer_id, graph, "SP1")
        system.network.run()
        assert len(system.query("P1", PAPER_QUERY)) == 9
        coordinator = system.peers["P1"]
        ads = [p.base.active_schema(pid) for pid, p in system.peers.items()]
        pattern = extract_pattern(parse_query(PAPER_QUERY), schema)
        plan = coordinator.coordinator.plan_for(route_query(pattern, ads, schema))
        assert plan.peers() == {"P1", "P2", "P3", "P4"}
        estimate = CostModel(coordinator.statistics).plan_cost(plan, "P1")
        kinds = system.network.metrics.messages_by_kind
        assert estimate.messages == kinds["SubPlanPacket"] + kinds["DataPacket"] == 6
        remote = [n for n in plan.walk() if isinstance(n, Scan) and n.peer_id != "P1"]
        assert system.network.metrics.subplans_shipped == len(remote) > 3

    def test_intermediate_rows(self, stats, patterns):
        model = CostModel(stats)
        plan = Union([Scan((patterns[0],), "P1"), Scan((patterns[0],), "P2")])
        assert model.intermediate_result_rows(plan) == 250

    def test_estimate_total_monotone_in_time(self):
        from repro.core.cost import CostEstimate

        fast = CostEstimate(100.0, 2, 1.0)
        slow = CostEstimate(100.0, 2, 9.0)
        assert slow.total > fast.total
