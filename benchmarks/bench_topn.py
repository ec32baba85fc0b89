"""Experiment topn — Section 5: completeness vs processing-load trade-off.

The paper's future work: "study the trade-off between result
completeness and processing load using the concepts of Top N queries"
and "constraints regarding the number of peer nodes that each query is
broadcasted".  Sweeping the per-pattern broadcast bound over a
redundant SON measures exactly that curve: fewer contacted peers, fewer
messages, fewer (but still sound) answers.
"""

from __future__ import annotations

from repro.config import PeerConfig
from repro.systems import HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import chain_query, random_queries
from repro.workloads.schema_gen import generate_schema

from ._common import banner, format_table, write_report

SYNTH = generate_schema(chain_length=2, refinement_fraction=0.0, seed=21)
PEERS = [f"P{i}" for i in range(10)]
QUERY = chain_query(SYNTH, 0, 2)


def _system() -> HybridSystem:
    gen = generate_bases(
        SYNTH, PEERS, Distribution.HORIZONTAL, statements_per_segment=6, seed=21
    )
    system = HybridSystem(SYNTH.schema)
    system.add_super_peer("SP1")
    for peer_id, graph in gen.bases.items():
        system.add_peer(peer_id, graph, "SP1")
    system.run()
    return system


def _run(max_peers):
    system = _system()
    table = system.query("P0", QUERY, max_peers=max_peers)
    kinds = system.network.metrics.messages_by_kind
    return len(table), kinds["SubPlanPacket"], system.network.metrics.bytes_total


# -- live plane: top-k early termination via ubQL discard ------------------
# The deployment mirrors the difftest wall's known cancellation-friendly
# shape (a union where one channel completes while others still
# stream); paced chunked streaming gives the discard something to stop.
CANCEL_SEED = 0
CANCEL_SYNTH = generate_schema(
    chain_length=4, refinement_fraction=0.0, noise_properties=1,
    seed=CANCEL_SEED,
)
CANCEL_PEERS = ["P1", "P2", "P3"]
CANCEL_QUERY = random_queries(CANCEL_SYNTH, 1, max_length=3, seed=CANCEL_SEED)[0]


def _cancel_system(cancel: bool) -> HybridSystem:
    gen = generate_bases(
        CANCEL_SYNTH,
        CANCEL_PEERS,
        Distribution.VERTICAL,
        statements_per_segment=30,
        shared_pool=6,
        seed=CANCEL_SEED,
    )
    system = HybridSystem(
        CANCEL_SYNTH.schema,
        seed=CANCEL_SEED,
        config=PeerConfig(topk_cancel=cancel, batch_size=4, stream_interval=2.0),
    )
    system.add_super_peer("SP")
    for peer_id in CANCEL_PEERS:
        system.add_peer(peer_id, gen.bases[peer_id], "SP")
    system.run()
    return system


def topk_cancel_run(limit, cancel=True):
    """(answer rows, cancels fired, binding batches on the wire) for one
    top-k query through the paced deployment."""
    system = _cancel_system(cancel)
    client = system.add_client("C")
    query_id = client.submit("P1", CANCEL_QUERY, limit=limit)
    system.run()
    result = client.result(query_id)
    assert result is not None and result.error is None, result
    metrics = system.network.metrics
    return len(result.table), metrics.topk_cancels, metrics.batches_sent


def report() -> str:
    full_rows, _, _ = _run(None)
    rows = []
    for bound in (1, 2, 4, 8, None):
        answered, subplans, bytes_total = _run(bound)
        rows.append((
            bound if bound is not None else "∞",
            answered,
            f"{answered / full_rows:.0%}",
            subplans,
            bytes_total,
        ))
    text = banner(
        "topn",
        "Section 5: Top-N / broadcast-constrained queries",
        "bounding the number of peers each pattern is broadcast to trades "
        "result completeness for per-query processing load and traffic",
    ) + format_table(
        ("max peers per pattern", "rows", "completeness",
         "subplans shipped", "bytes"),
        rows,
    )
    _, _, unbounded_batches = topk_cancel_run(None, cancel=True)
    cancel_rows = []
    for k in (1, 3, 5, 10, None):
        answered, cancels, batches = topk_cancel_run(k)
        cancel_rows.append((
            k if k is not None else "∞",
            answered,
            cancels,
            batches,
            unbounded_batches - batches,
        ))
    cancel_text = banner(
        "topk-cancel",
        "Section 5 live plane: any-k early termination via ubQL discard",
        "once k results are stable the coordinator discards the "
        "remaining channels the ubQL way (ChangePlanPacket), so smaller "
        "k stops paced binding streams earlier and saves wire batches",
    ) + format_table(
        ("k", "rows", "cancels", "batches on wire", "batches saved"),
        cancel_rows,
    )
    write_report(
        "topk-cancel",
        cancel_text,
        params={
            "seed": CANCEL_SEED,
            "peers": len(CANCEL_PEERS),
            "batch_size": 4,
            "query": CANCEL_QUERY,
        },
    )
    return write_report("topn", text) + "\n" + cancel_text


def bench_unconstrained(benchmark):
    rows, _, _ = benchmark(_run, None)
    assert rows > 0
    report()


def bench_bounded_to_two(benchmark):
    rows, subplans, _ = benchmark(_run, 2)
    full_rows, full_subplans, _ = _run(None)
    assert rows <= full_rows
    assert subplans < full_subplans


def bench_topk_cancel_saves_batches(benchmark):
    """With top-k cancel on, the k answers arrive with strictly fewer
    binding batches than the unbounded twin, and at least one ubQL
    discard fires."""
    rows, cancels, batches_on = benchmark(topk_cancel_run, 5)
    _, off_cancels, batches_off = topk_cancel_run(5, cancel=False)
    assert rows == 5
    assert cancels >= 1
    assert off_cancels == 0
    assert batches_on < batches_off


def bench_limit_truncates(benchmark):
    def run():
        system = _system()
        return system.query("P0", QUERY, limit=3)

    table = benchmark(run)
    assert len(table) == 3
