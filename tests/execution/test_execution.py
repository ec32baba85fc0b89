"""Tests for operators, local scans, and the distributed executor."""

import pytest

from repro.core.algebra import Hole, Join, Scan, Union
from repro.errors import EvaluationError, PlanningError
from repro.execution import (
    BindingBatch,
    EncodedBase,
    PlanExecutor,
    evaluate_scan_encoded,
    finalize_encoded,
    vjoin_all_distinct,
    vunion_all_distinct,
)
from repro.execution.engine import ExecutionStrategy
from repro.net import Network
from repro.peers.base import Peer, PeerBase
from repro.rdf import InferredView, Literal, Namespace
from repro.rdf.dictionary import TermDictionary
from repro.rql.ast import Condition
from repro.rql import evaluate_path_pattern
from repro.rql.bindings import BindingTable
from repro.workloads.paper import (
    N1,
    paper_peer_bases,
    paper_query_pattern,
    paper_schema,
)

from ..idtables import cells, decode_cells, encode_cells

EX = Namespace("http://e/")


@pytest.fixture
def schema():
    return paper_schema()


@pytest.fixture
def patterns(schema):
    return paper_query_pattern(schema).patterns


def finalized(table, projections, conditions=()):
    dictionary = TermDictionary()
    return finalize_encoded(
        encode_cells(table, dictionary), dictionary, projections, conditions
    ).to_terms()


class TestOperators:
    def test_union_all_single(self):
        t = BindingTable(("X",), [(EX.a,)])
        assert vunion_all_distinct([BindingBatch.from_table(t)]).to_table() == t

    def test_union_all_empty_rejected(self):
        with pytest.raises(EvaluationError):
            vunion_all_distinct([])

    def test_join_all_chains(self):
        a = BindingTable(("X", "Y"), [(EX.a, EX.b)])
        b = BindingTable(("Y", "Z"), [(EX.b, EX.c)])
        c = BindingTable(("Z", "W"), [(EX.c, EX.d)])
        out = vjoin_all_distinct([BindingBatch.from_table(t) for t in (a, b, c)])
        assert len(out) == 1
        assert set(out.columns) == {"X", "Y", "Z", "W"}

    def test_join_all_empty_rejected(self):
        with pytest.raises(EvaluationError):
            vjoin_all_distinct([])

    def test_apply_conditions_filters(self):
        t = BindingTable(("X",), [(Literal(1),), (Literal(5),)])
        out = finalized(t, ["X"], [Condition("X", ">", Literal(3))])
        assert out.rows == [(Literal(5),)]

    def test_apply_conditions_skips_missing_columns(self):
        t = BindingTable(("X",), [(Literal(1),)])
        out = finalized(t, ["X"], [Condition("Z", ">", Literal(3))])
        assert len(out) == 1  # untouched

    def test_finalize_projects_and_dedups(self):
        t = BindingTable(("X", "Y"), [(EX.a, EX.b), (EX.a, EX.c)])
        out = finalized(t, ["X"])
        assert out.columns == ("X",)
        assert out.rows == [(EX.a,)]


class TestLocalScan:
    def scan(self, patterns, peer_id, schema):
        base = EncodedBase(paper_peer_bases()[peer_id], schema, TermDictionary())
        return evaluate_scan_encoded(Scan(tuple(patterns), peer_id), base)

    def test_single_pattern(self, schema, patterns):
        table = self.scan(patterns[:1], "P2", schema)
        assert len(table) == 4
        assert set(table.columns) == {"X", "Y"}

    def test_composite_scan_joins_locally(self, schema, patterns):
        table = self.scan(patterns, "P1", schema)
        assert len(table) == 3  # P1's complete chains
        assert set(table.columns) == {"X", "Y", "Z"}

    def test_subsumption_at_p4(self, schema, patterns):
        table = self.scan(patterns[:1], "P4", schema)
        assert len(table) == 2  # prop4 statements answer the prop1 scan

    def test_scan_decodes_to_the_centralized_answer(self, schema, patterns):
        graph = paper_peer_bases()["P2"]
        dictionary = TermDictionary()
        table = evaluate_scan_encoded(
            Scan((patterns[0],), "P2"), EncodedBase(graph, schema, dictionary)
        )
        assert all(isinstance(cell, int) for cell in cells(table))
        expected = evaluate_path_pattern(patterns[0], InferredView(graph, schema))
        assert decode_cells(table, dictionary) == expected

    def test_scanned_batch_survives_an_in_place_column_patch(self, schema, patterns):
        """``apply_delta`` appends to / deletes from the cached id
        columns in place; a batch a query already holds (a lone
        pattern's scan, which no join has re-materialised) must not
        alias them — it keeps the rows it scanned, rectangular."""
        graph = paper_peer_bases()["P2"]
        base = EncodedBase(graph, schema, TermDictionary())
        scan = Scan((patterns[0],), "P2")
        held = evaluate_scan_encoded(scan, base)
        scanned = {name: list(held.data[name]) for name in held.columns}
        cached = base.pattern_columns(patterns[0].schema_path)
        gone = next(graph.triples(None, N1.prop1, None))
        graph.remove_triple(gone)
        extra = [graph.add(EX.s1, N1.prop1, EX.o1), graph.add(EX.s2, N1.prop1, EX.o2)]
        base.apply_delta(extra, [gone])
        assert base.pattern_columns(patterns[0].schema_path)[0] is cached[0]  # patched
        assert len(evaluate_scan_encoded(scan, base)) == len(held) + 1
        assert held.data == scanned
        assert {len(column) for column in held.data.values()} == {len(held)} == {4}


class _HostPeer(Peer):
    """A real peer wired into a network for executor tests."""


def _network_with_paper_peers(schema):
    network = Network()
    bases = paper_peer_bases()
    peers = {}
    for peer_id in ("P1", "P2", "P3", "P4"):
        peer = _HostPeer(peer_id, PeerBase(bases[peer_id], schema))
        peer.join(network)
        peers[peer_id] = peer
    coordinator = _HostPeer("C", None)
    coordinator.join(network)
    return network, peers, coordinator


class TestPlanExecutor:
    def run_plan(self, plan, schema):
        network, peers, coordinator = _network_with_paper_peers(schema)
        outcome = {}

        def on_complete(tables, failed):
            outcome["table"] = tables and tables[0]
            outcome["failed"] = failed

        PlanExecutor(coordinator, network, (plan,), on_complete=on_complete).start()
        network.run()
        return outcome, network

    def test_remote_scan(self, schema, patterns):
        outcome, _ = self.run_plan(Scan((patterns[0],), "P2"), schema)
        assert outcome["failed"] is None
        assert len(outcome["table"]) == 4

    def test_union_across_peers(self, schema, patterns):
        plan = Union([Scan((patterns[0],), "P2"), Scan((patterns[0],), "P4")])
        outcome, _ = self.run_plan(plan, schema)
        assert len(outcome["table"]) == 6  # 4 + 2

    def test_cross_peer_join(self, schema, patterns):
        plan = Join([Scan((patterns[0],), "P2"), Scan((patterns[1],), "P3")])
        outcome, _ = self.run_plan(plan, schema)
        assert len(outcome["table"]) == 4  # the bridge resources join

    def test_full_paper_plan(self, schema, patterns):
        plan = Join([
            Union([Scan((patterns[0],), p) for p in ("P1", "P2", "P4")]),
            Union([Scan((patterns[1],), p) for p in ("P1", "P3", "P4")]),
        ])
        outcome, _ = self.run_plan(plan, schema)
        table = outcome["table"]
        # chains: P1 local (3), P2->P3 bridge (4), P4 local (2)
        projected = table.project(("X", "Y")).distinct()
        assert len(projected) == 9

    def test_hole_raises(self, schema, patterns):
        network, peers, coordinator = _network_with_paper_peers(schema)
        executor = PlanExecutor(coordinator, network, (Hole(patterns[0]),))
        with pytest.raises(PlanningError):
            executor.start()

    def test_failed_peer_reported(self, schema, patterns):
        network, peers, coordinator = _network_with_paper_peers(schema)
        network.fail_peer("P2")
        outcome = {}

        def on_complete(tables, failed):
            outcome["failed"] = failed

        plan = Join([Scan((patterns[0],), "P2"), Scan((patterns[1],), "P3")])
        PlanExecutor(coordinator, network, (plan,), on_complete=on_complete).start()
        network.run()
        assert outcome["failed"] == "P2"

    def test_abort_suppresses_completion(self, schema, patterns):
        network, peers, coordinator = _network_with_paper_peers(schema)
        calls = []
        executor = PlanExecutor(
            coordinator,
            network,
            (Scan((patterns[0],), "P2"),),
            on_complete=lambda t, f: calls.append(1),
        )
        executor.start()
        executor.abort()
        network.run()
        assert calls == []

    def test_query_shipping_site(self, schema, patterns):
        """Pushing the join to P2 still yields the same answer."""
        plan = Join([Scan((patterns[0],), "P2"), Scan((patterns[1],), "P3")])
        network, peers, coordinator = _network_with_paper_peers(schema)
        outcome = {}

        def on_complete(tables, failed):
            (outcome["table"],) = tables

        PlanExecutor(
            coordinator,
            network,
            (plan,),
            sites={(0,): "P2"},
            on_complete=on_complete,
        ).start()
        network.run()
        assert len(outcome["table"]) == 4


def _spy_subplans(peers):
    """Record every ``SubPlanPacket`` each of ``peers`` receives."""
    seen = []
    for peer in peers:

        def spy(message, handle=peer.handle_SubPlanPacket):
            seen.append((message.src, message.dst, message.payload))
            handle(message)

        peer.handle_SubPlanPacket = spy
    return seen


class TestShipmentPerDestination:
    """The unit of shipping is the destination: an executor opens one
    channel per site, carrying every subtree bound for it."""

    def paper_plan(self, patterns):
        return Join([
            Union([Scan((patterns[0],), p) for p in ("P1", "P2", "P4")]),
            Union([Scan((patterns[1],), p) for p in ("P1", "P3", "P4")]),
        ])

    def run(self, schema, plan, strategy=None, sites=None):
        network, peers, coordinator = _network_with_paper_peers(schema)
        shipped = _spy_subplans(peers.values())
        outcome = []
        PlanExecutor(
            coordinator,
            network,
            (plan,),
            sites=sites,
            on_complete=lambda tables, failed: outcome.append((tables[0], failed)),
            strategy=strategy or ExecutionStrategy(),
        ).start()
        network.run()
        ((table, failed),) = outcome
        assert failed is None
        answer = decode_cells(table.project(("X", "Y")).distinct(), coordinator.dictionary)
        return sorted(answer.rows, key=repr), shipped, network, peers, coordinator

    @pytest.mark.parametrize("stream", [False, True], ids=["gather", "streaming"])
    def test_one_channel_per_destination(self, schema, patterns, stream):
        rows, shipped, network, peers, coordinator = self.run(
            schema, self.paper_plan(patterns), ExecutionStrategy(stream=stream)
        )
        assert len(rows) == 9
        # six scans, four destinations: P1 and P4 each answer both
        # path patterns over one channel
        assert sorted((dst, len(p.plans)) for _, dst, p in shipped) == [
            ("P1", 2), ("P2", 1), ("P3", 1), ("P4", 2)
        ]
        metrics = network.metrics
        assert metrics.messages_by_kind == {"SubPlanPacket": 4, "DataPacket": 4}
        assert metrics.subplans_shipped == 6 and metrics.scans_empty == 0
        assert len(coordinator.channels) == 0
        assert all(peer._executing_subplans == set() for peer in peers.values())

    def test_nested_shipment_coalesces_at_every_hop(self, schema, patterns):
        """The whole join runs at P2, whose own executor ships P4's two
        scans in one packet; a site map rides under its output index
        and reaches the executor it is for."""
        plan = self.paper_plan(patterns)
        expected, *_ = self.run(schema, plan)
        rows, shipped, network, *_ = self.run(schema, plan, sites={(0,): "P2"})
        assert rows == expected
        assert sorted((src, dst, len(p.plans)) for src, dst, p in shipped) == [
            ("C", "P2", 1), ("P2", "P1", 2), ("P2", "P3", 1), ("P2", "P4", 2)
        ]
        assert all(p.sites == {} for *_, p in shipped)

        # the second union runs at P3 *inside* the join shipped to P2,
        # next to a lone scan for P2: sites are keyed by output index
        plan = Join([Scan((patterns[0],), "P2"), plan])
        expected, *_ = self.run(schema, plan)
        assert len(expected) == 4
        sites = {(0, 1): "P2", (0, 1, 1): "P3"}
        rows, shipped, *_ = self.run(schema, plan, sites=sites)
        assert rows == expected
        (first,) = [p for src, _, p in shipped if src == "C"]
        assert [type(p).__name__ for p in first.plans] == ["Scan", "Join"]
        assert first.sites == {(1, 1): "P3"}
        assert sorted((src, dst, len(p.plans)) for src, dst, p in shipped) == [
            ("C", "P2", 2), ("P2", "P1", 1), ("P2", "P3", 1), ("P2", "P4", 1),
            ("P3", "P1", 1), ("P3", "P4", 1),
        ]

    def test_phased_cache_fills_per_output_also_after_an_abort(self, schema, patterns):
        """An aborted attempt's channels stay open for their scan
        outputs: each lands in the cache under its own scan, and the
        next attempt ships nothing."""
        plan = self.paper_plan(patterns)
        network, peers, coordinator = _network_with_paper_peers(schema)
        cache, calls = {}, []
        strategy = ExecutionStrategy(scan_cache=cache)
        executor = PlanExecutor(
            coordinator, network, (plan,), on_complete=lambda t, f: calls.append(f),
            strategy=strategy,
        )
        executor.start()
        executor.abort()
        assert len(coordinator.channels) == 4  # open for salvage
        network.run()
        assert calls == [] and len(coordinator.channels) == 0
        scans = [node for node in plan.walk() if isinstance(node, Scan)]
        assert set(cache) == set(scans)
        assert all(tuple(cache[scan].columns) == tuple(scan.variables()) for scan in scans)
        assert network.metrics.messages_by_kind.get("ChangePlanPacket", 0) == 0

        before = network.metrics.messages_total
        outcome = []
        retry = PlanExecutor(
            coordinator, network, (plan,),
            on_complete=lambda t, f: outcome.append((t[0], f)), strategy=strategy,
        )
        retry.start()
        ((table, failed),) = outcome  # synchronously, from the cache
        assert failed is None and len(table.project(("X", "Y")).distinct()) == 9
        assert retry.reused_rows == sum(len(t) for t in cache.values())
        assert network.metrics.messages_total == before

    def test_phased_salvage_on_a_mixed_shipment(self, schema, patterns):
        """A scan shipped beside a join for the same site: the aborted
        attempt keeps the one channel open, the scan lands in the cache
        and the join — which runs to its end at the destination, no
        ``ChangePlanPacket`` can stop half a stream — is dropped."""
        scan = Scan((patterns[0],), "P2")
        plan = Join([scan, self.paper_plan(patterns)])
        network, peers, coordinator = _network_with_paper_peers(schema)
        shipped = _spy_subplans(peers.values())
        cache, calls = {}, []
        executor = PlanExecutor(
            coordinator, network, (plan,), sites={(0, 1): "P2"},
            on_complete=lambda t, f: calls.append(f),
            strategy=ExecutionStrategy(scan_cache=cache),
        )
        executor.start()
        executor.abort()
        assert len(coordinator.channels) == 1
        network.run()
        (first,) = [p for src, _, p in shipped if src == "C"]
        assert [type(p).__name__ for p in first.plans] == ["Scan", "Join"]
        assert calls == [] and len(coordinator.channels) == 0
        assert set(cache) == {scan} and len(cache[scan]) == 4
        assert network.metrics.messages_by_kind.get("ChangePlanPacket", 0) == 0
        assert all(peer._executing_subplans == set() for peer in peers.values())
