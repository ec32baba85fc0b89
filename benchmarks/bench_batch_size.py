"""Experiment batch — batched shipping (Section 2.5).

A channel's cost is paid per *packet*: the engine ships
:attr:`batch_size` bindings per ``DataPacket`` (each naming the
distinct terms its cells reference), so a larger batch pays
the per-message cost fewer times.  This experiment sweeps batch size ×
``cost_based`` over a union-heavy synthetic workload (~500 answer rows)
and measures answer equality against the centralized evaluator,
wall-clock time, simulator messages, bytes and shipped data packets.

Invariants asserted by the pytest entry points:

* every row of the sweep returns the centralized answer;
* ``batch_size=256`` ships ≥ 10x fewer simulator messages than
  per-binding shipping (``batch_size=1``).

``python -m benchmarks.bench_batch_size --quick`` runs a scaled-down
sweep for the CI bench-smoke job (same table, smaller bases).
"""

from __future__ import annotations

import sys
import time

from repro.config import PeerConfig
from repro.rdf.graph import Graph
from repro.rql.evaluator import query as centralized_query
from repro.systems import HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import generate_schema

from ._common import banner, format_table, write_report

SEED = 13
PEERS = [f"P{i}" for i in range(1, 5)]
SYNTH = generate_schema(
    chain_length=3, refinement_fraction=0.0, noise_properties=0, seed=SEED
)
QUERY = chain_query(SYNTH, 0, 3)

#: full-size vs --quick workload knobs (statements per chain segment)
FULL_STATEMENTS = 150
QUICK_STATEMENTS = 40


def _bases(statements: int):
    return generate_bases(
        SYNTH,
        PEERS,
        Distribution.HORIZONTAL,
        statements_per_segment=statements,
        shared_pool=40,
        seed=SEED,
    ).bases


def centralized_answer(statements: int = FULL_STATEMENTS):
    """The oracle: the query over the union of every peer base."""
    merged = Graph()
    for graph in _bases(statements).values():
        merged.update(graph)
    return centralized_query(QUERY, merged, SYNTH.schema).distinct()


def run_once(batch_size: int, statements: int = FULL_STATEMENTS, cost_based=False):
    """One end-to-end query; returns a measurement dict."""
    bases = _bases(statements)
    system = HybridSystem(
        SYNTH.schema,
        seed=SEED,
        config=PeerConfig(batch_size=batch_size, cost_based=cost_based),
    )
    system.add_super_peer("SP")
    for peer_id in PEERS:
        system.add_peer(peer_id, bases[peer_id], "SP")
    system.run()  # settle advertisements before timing
    started = time.perf_counter()
    table = system.query("P1", QUERY)
    wall = time.perf_counter() - started
    metrics = system.network.metrics
    return {
        "rows": len(table),
        "table": table,
        "wall": wall,
        "messages": metrics.messages_total,
        "bytes": metrics.bytes_total,
        "data_packets": metrics.messages_by_kind.get("DataPacket", 0),
        "batches": metrics.batches_sent,
        "mean_batch": metrics.bindings_per_batch.mean or 0.0,
        "discarded": metrics.discarded_bindings,
        "summary": metrics.summary(),
    }


BATCH_SIZES = (1, 8, 32, 256)
#: (label, batch_size, cost_based)
SWEEP = [
    (f"batch-{batch_size}" + ("+cost" if cost_based else ""), batch_size, cost_based)
    for cost_based in (False, True)
    for batch_size in BATCH_SIZES
]


def sweep(statements: int = FULL_STATEMENTS):
    return {
        label: run_once(batch_size, statements, cost_based)
        for label, batch_size, cost_based in SWEEP
    }


def _table_text(results) -> str:
    rows = []
    for label, _, _ in SWEEP:
        r = results[label]
        rows.append((
            label,
            r["rows"],
            f"{r['wall'] * 1000:.1f}",
            r["messages"],
            r["bytes"],
            r["data_packets"],
            f"{r['mean_batch']:.1f}",
        ))
    return format_table(
        (
            "configuration",
            "answer rows",
            "wall ms",
            "messages",
            "bytes",
            "data packets",
            "bindings/batch",
        ),
        rows,
    )


def report(statements: int = FULL_STATEMENTS) -> str:
    results = sweep(statements)
    text = banner(
        "batch",
        "Section 2.5: batched plan evaluation",
        "shipping bindings in batches over channels pays per-message cost "
        "per batch instead of per binding, with the answer unchanged at "
        "every batch size",
    ) + _table_text(results)
    return write_report(
        "batch",
        text,
        params={
            "seed": SEED,
            "peers": len(PEERS),
            "statements_per_segment": statements,
            "batch_sizes": list(BATCH_SIZES),
        },
        metrics=results["batch-256"]["summary"],
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points (assert the experiment's invariants)
# ----------------------------------------------------------------------
def bench_batching_cuts_messages(benchmark):
    """The headline number: ≥10x fewer messages and data packets than
    per-binding shipping, for the same answer (counts are exact)."""
    batched = benchmark(lambda: run_once(256))
    per_binding = run_once(1)
    assert batched["table"] == per_binding["table"]
    assert per_binding["messages"] >= 10 * batched["messages"]
    assert per_binding["data_packets"] >= 10 * batched["data_packets"]
    report()


def bench_all_batch_sizes_agree(benchmark):
    """Every row of the sweep returns the centralized answer."""
    results = benchmark(lambda: sweep(QUICK_STATEMENTS))
    reference = centralized_answer(QUICK_STATEMENTS)
    for label, _, _ in SWEEP:
        assert results[label]["table"] == reference, label


# ----------------------------------------------------------------------
# CI smoke mode: scaled-down sweep for the bench-smoke job
# ----------------------------------------------------------------------
def main(argv) -> int:
    statements = QUICK_STATEMENTS if "--quick" in argv else FULL_STATEMENTS
    print(report(statements))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
