"""Experiment adapt — Section 2.5: run-time adaptability of query plans.

Quantifies the value of the replan-on-failure protocol: with peers
failing under the coordinator, adaptive execution recovers answers
(from redundant providers) that non-adaptive execution loses.
"""

from __future__ import annotations

from repro.config import PeerConfig
from repro.errors import PeerError
from repro.systems import HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import generate_schema

from ._common import banner, format_table, write_report

SYNTH = generate_schema(chain_length=2, refinement_fraction=0.0, seed=3)
PEERS = [f"P{i}" for i in range(8)]
QUERY = chain_query(SYNTH, 0, 2)


def _system(adaptive: bool, seed: int = 0) -> HybridSystem:
    gen = generate_bases(
        SYNTH, PEERS, Distribution.HORIZONTAL, statements_per_segment=8, seed=seed
    )
    system = HybridSystem(SYNTH.schema, config=PeerConfig(adaptive=adaptive))
    system.add_super_peer("SP1")
    for peer_id, graph in gen.bases.items():
        system.add_peer(peer_id, graph, "SP1")
    system.run()
    return system


def _run_with_failures(adaptive: bool, failures: int, seed: int = 0):
    system = _system(adaptive, seed)
    for i in range(1, failures + 1):
        system.network.fail_peer(PEERS[i])
    try:
        table = system.query(PEERS[0], QUERY)
        return ("answered", len(table), system.network.metrics.messages_total)
    except PeerError:
        return ("failed", 0, system.network.metrics.messages_total)


def report() -> str:
    rows = []
    for failures in (0, 1, 2, 3):
        adaptive = _run_with_failures(True, failures)
        fixed = _run_with_failures(False, failures)
        rows.append((
            failures,
            f"{adaptive[0]} ({adaptive[1]} rows, {adaptive[2]} msgs)",
            f"{fixed[0]} ({fixed[1]} rows, {fixed[2]} msgs)",
        ))
    text = banner(
        "adapt",
        "Section 2.5: run-time plan adaptation under peer failures",
        "the channel root replans excluding obsolete peers (ubQL discard); "
        "without adaptation any failure kills the query",
    ) + format_table(
        ("failed peers", "adaptive (SQPeer)", "non-adaptive"), rows
    )
    return write_report("adapt", text)


def bench_adaptive_recovery(benchmark):
    def run():
        return _run_with_failures(True, failures=2)

    status, retrieved_rows, _ = benchmark(run)
    assert status == "answered"
    assert retrieved_rows > 0
    report()


def bench_failure_free_baseline(benchmark):
    def run():
        return _run_with_failures(True, failures=0)

    status, retrieved_rows, _ = benchmark(run)
    assert status == "answered"


def bench_non_adaptive_failure(benchmark):
    def run():
        return _run_with_failures(False, failures=1)

    status, _, _ = benchmark(run)
    assert status == "failed"
