"""End-to-end pipelined evaluation: identical answers, earlier first
rows (Section 2.5: Plan 2 'offers the ability to evaluate this plan in
a pipeline way')."""

import pytest

from repro.config import PeerConfig
from repro.systems import HybridSystem
from repro.workloads.paper import PAPER_QUERY, paper_peer_bases, paper_schema
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import generate_schema


def build_system(pipelined: bool, chunk_rows=2, interval=5.0) -> HybridSystem:
    system = HybridSystem(
        paper_schema(),
        config=PeerConfig(
            pipelined_execution=pipelined,
            stream_chunk_rows=chunk_rows,
            stream_interval=interval,
        ),
    )
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    return system


class TestCorrectness:
    def test_same_answer_as_blocking(self):
        blocking = build_system(False).query("P1", PAPER_QUERY)
        pipelined = build_system(True).query("P1", PAPER_QUERY)
        assert pipelined == blocking

    def test_without_streaming_still_correct(self):
        system = build_system(True, chunk_rows=None)
        assert len(system.query("P1", PAPER_QUERY)) == 9

    def test_synthetic_workload_equivalence(self):
        synth = generate_schema(chain_length=3, refinement_fraction=0.5, seed=13)
        gen = generate_bases(
            synth, [f"P{i}" for i in range(5)], Distribution.MIXED, seed=14
        )

        def run(pipelined):
            system = HybridSystem(
                synth.schema,
                config=PeerConfig(pipelined_execution=pipelined, stream_chunk_rows=3),
            )
            system.add_super_peer("SP1")
            for peer_id, graph in gen.bases.items():
                system.add_peer(peer_id, graph, "SP1")
            return system.query("P0", chain_query(synth, 0, 2))

        assert run(True) == run(False)

    def test_single_scan_plan(self):
        """A plan that is just one remote scan also works pipelined."""
        from repro.workloads.paper import N1

        system = build_system(True)
        text = (
            "SELECT X, Y FROM {X} n1:prop2 {Y} "
            f"USING NAMESPACE n1 = &{N1.uri}&"
        )
        table = system.query("P2", text)
        assert len(table) > 0

    def test_failure_during_pipelined_execution(self):
        system = build_system(True)
        system.run()
        system.network.fail_peer("P2")
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 5  # adaptation still works


class TestFirstResultLatency:
    def test_pipelined_first_rows_earlier(self):
        """With slow streaming producers, the pipelined coordinator
        materialises its first join rows before the blocking one has
        even finished collecting inputs."""
        pipelined_system = build_system(True, chunk_rows=1, interval=10.0)
        pipelined_system.query("P1", PAPER_QUERY)
        first_at = pipelined_system.peers["P1"].last_first_output_at
        assert first_at is not None

        blocking_system = build_system(False, chunk_rows=1, interval=10.0)
        blocking_system.query("P1", PAPER_QUERY)
        completion_at = blocking_system.network.now
        assert first_at < completion_at

    def test_first_output_unset_for_empty_answers(self):
        from repro.workloads.paper import N1

        system = build_system(True)
        text = (
            "SELECT X, Y FROM {X} n1:prop3 {Y} "
            f"USING NAMESPACE n1 = &{N1.uri}&"
        )
        # nobody holds prop3 in this SON: the query fails to route
        from repro.errors import PeerError

        with pytest.raises(PeerError):
            system.query("P1", text)


class TestComposition:
    """Streaming is an operator family of the one plan walk, so it
    composes with placement and with the phased failure policy."""

    def test_streaming_honours_placement(self):
        """With links that make the coordinator the worst join site, a
        streaming run ships whole joins, not only scans: peers other
        than the coordinator root channels of their own."""
        from repro.core import Statistics

        stats = Statistics(default_cardinality=1000, join_selectivity=0.0001)
        for other in ("P2", "P3", "P4"):
            stats.set_link_cost("P1", other, 50.0)
        for a, b in (("P2", "P3"), ("P2", "P4"), ("P3", "P4")):
            stats.set_link_cost(a, b, 0.01)
        system = HybridSystem(
            paper_schema(),
            statistics=stats,
            config=PeerConfig(
                pipelined_execution=True, use_shipping=True, stream_chunk_rows=2
            ),
        )
        system.add_super_peer("SP1")
        for peer_id, graph in paper_peer_bases().items():
            system.add_peer(peer_id, graph, "SP1")
        assert system.query("P1", PAPER_QUERY) == build_system(False).query(
            "P1", PAPER_QUERY
        )
        collector = system.network.tracer.collector
        channel_roots = {
            span.peer_id
            for trace_id in collector.trace_ids()
            for span in collector.spans(trace_id)
            if span.name == "channel"
        }
        assert channel_roots - {"P1"}

    @pytest.mark.parametrize("policy", ["discard", "phased"])
    def test_peer_failing_mid_stream(self, policy):
        """P3 dies while every scan is still streaming (the simulator
        only bounces messages *to* a down peer, so the crashed process's
        paced sends are cut here).  The stall monitor fails its channel;
        the phased policy then salvages what the surviving streams
        deliver — real rows, although a streamed channel's completion
        itself carries none — and the retry ships nothing again.  Either
        way the answer is the centralized one over the survivors."""
        from repro.rdf.graph import Graph
        from repro.rql.evaluator import query as centralized_query

        synth = generate_schema(chain_length=2, refinement_fraction=0.0, seed=0)
        peers = [f"P{i}" for i in range(6)]
        gen = generate_bases(
            synth, peers, Distribution.HORIZONTAL, statements_per_segment=60, seed=0
        )
        system = HybridSystem(
            synth.schema,
            config=PeerConfig(
                pipelined_execution=True,
                failure_policy=policy,
                stream_chunk_rows=1,
                stream_interval=0.25,
                monitor_channels=True,
                monitor_interval=1.0,
            ),
        )
        system.add_super_peer("SP1")
        for peer_id, graph in gen.bases.items():
            system.add_peer(peer_id, graph, "SP1")
        system.run()
        text = chain_query(synth, 0, 2)
        client = system.add_client("C")
        query_id = client.submit("P0", text)
        system.network.run(until=system.network.now + 7.0)
        streamed = system.peers["P0"].channels.open_channels().values()
        assert {channel.destination for channel in streamed} >= {"P3", "P4"}
        assert all(channel.tuples_received for channel in streamed)
        system.network.fail_peer("P3")
        system.peers["P3"].send = lambda *args, **kwargs: None
        system.run()

        survivors = Graph()
        for peer_id, graph in gen.bases.items():
            if peer_id != "P3":
                for triple in graph.triples():
                    survivors.add_triple(triple)
        expected = centralized_query(text, survivors, synth.schema).distinct()
        result = client.result(query_id)
        assert result.error is None
        assert result.table == expected
        metrics = system.network.metrics
        destinations = len(peers) - 1  # each answers both path patterns
        retried = 0 if policy == "phased" else destinations - 1
        assert metrics.messages_by_kind["SubPlanPacket"] == destinations + retried
        assert metrics.subplans_shipped == 2 * (destinations + retried)
