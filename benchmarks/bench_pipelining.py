"""Experiment pipeline — Section 2.5: pipelined plan evaluation.

"This plan ... offers the ability to evaluate this plan in a pipeline
way."  With peers streaming result chunks, the pipelined coordinator
pushes every chunk through incremental joins and materialises its
first answer rows long before the last chunk arrives; the blocking
evaluator waits for complete inputs.  Final answers are identical —
the win is time-to-first-result, growing with the producers' streaming
duration.
"""

from __future__ import annotations

from repro.config import PeerConfig
from repro.systems import HybridSystem
from repro.workloads.paper import PAPER_QUERY, paper_peer_bases, paper_schema

from ._common import banner, format_table, write_report


def _system(pipelined: bool, interval: float) -> HybridSystem:
    system = HybridSystem(
        paper_schema(),
        config=PeerConfig(
            pipelined_execution=pipelined,
            stream_chunk_rows=1,
            stream_interval=interval,
        ),
    )
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    return system


def _measure(pipelined: bool, interval: float):
    system = _system(pipelined, interval)
    table = system.query("P1", PAPER_QUERY)
    completion = system.network.now
    first = system.peers["P1"].last_first_output_at
    return len(table), first, completion


def report() -> str:
    rows = []
    for interval in (1.0, 5.0, 20.0, 50.0):
        rows_p, first_p, total_p = _measure(True, interval)
        rows_b, _, total_b = _measure(False, interval)
        assert rows_p == rows_b
        rows.append((
            interval,
            f"{first_p:.1f}",
            f"{total_p:.1f}",
            f"{total_b:.1f}",
            f"{(total_p - (first_p or 0)) / max(total_p, 1e-9):.0%}",
        ))
    text = banner(
        "pipeline",
        "Section 2.5: pipelined ('pipeline way') plan evaluation",
        "incremental joins over streamed chunks produce first rows well "
        "before completion; blocking evaluation delivers everything at the "
        "end — answers are identical",
    ) + format_table(
        ("chunk interval", "pipelined first rows at", "pipelined done at",
         "blocking done at", "head start"),
        rows,
    )
    return write_report("pipeline", text)


def bench_pipelined_end_to_end(benchmark):
    def run():
        return _measure(True, 5.0)

    rows, first, completion = benchmark(run)
    assert rows == 9
    assert first is not None and first < completion
    report()


def bench_blocking_end_to_end(benchmark):
    def run():
        return _measure(False, 5.0)

    rows, _, _ = benchmark(run)
    assert rows == 9


def bench_streamed_chunks_keep_granularity(benchmark):
    """Explicit pipelining overrides implicit batching: with
    ``stream_chunk_rows=1`` every shipped batch carries at most one
    binding even though the engine's ``batch_size`` default is 256."""
    def run():
        system = _system(True, 1.0)
        table = system.query("P1", PAPER_QUERY)
        return system, table

    system, table = benchmark(run)
    assert len(table) == 9
    metrics = system.network.metrics
    assert metrics.batches_sent == metrics.messages_by_kind["DataPacket"]
    assert metrics.bindings_per_batch.count > 0
    assert metrics.bindings_per_batch.mean <= 1.0


def bench_head_start_grows_with_streaming(benchmark):
    def run():
        return _measure(True, 20.0)

    _, slow_first, slow_total = benchmark(run)
    _, fast_first, fast_total = _measure(True, 1.0)
    slow_head = slow_total - slow_first
    fast_head = fast_total - fast_first
    assert slow_head > fast_head  # longer streams, bigger pipeline win
