"""Experiment phased — Section 2.5 ablation: ubQL discard vs phased
execution.

The paper weighs two policies for partial results when a running plan
changes: ubQL's discard (SQPeer's choice) and the phased execution of
[Ives02].  Both are implemented; this experiment measures the wasted
work the discard policy re-ships after a failure and the subplans the
phased policy salvages.
"""

from __future__ import annotations

from repro.config import PeerConfig
from repro.systems import HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import generate_schema

from ._common import banner, format_table, write_report

SYNTH = generate_schema(chain_length=2, refinement_fraction=0.0, seed=11)
PEERS = [f"P{i}" for i in range(8)]
QUERY = chain_query(SYNTH, 0, 2)


def _run(policy: str, failures: int, seed: int = 0):
    gen = generate_bases(
        SYNTH, PEERS, Distribution.HORIZONTAL, statements_per_segment=8, seed=seed
    )
    system = HybridSystem(SYNTH.schema, config=PeerConfig(failure_policy=policy))
    system.add_super_peer("SP1")
    for peer_id, graph in gen.bases.items():
        system.add_peer(peer_id, graph, "SP1")
    system.run()
    for i in range(1, failures + 1):
        system.network.fail_peer(PEERS[i])
    table = system.query(PEERS[0], QUERY)
    kinds = system.network.metrics.messages_by_kind
    return len(table), kinds["SubPlanPacket"], system.network.metrics.bytes_total


def report() -> str:
    rows = []
    for failures in (0, 1, 2):
        d_rows, d_subplans, d_bytes = _run("discard", failures)
        p_rows, p_subplans, p_bytes = _run("phased", failures)
        rows.append((
            failures,
            f"{d_subplans} subplans / {d_bytes} B ({d_rows} rows)",
            f"{p_subplans} subplans / {p_bytes} B ({p_rows} rows)",
        ))
    text = banner(
        "phased",
        "Section 2.5 ablation: discard (ubQL) vs phased ([Ives02]) policies",
        "both policies answer identically; phased salvages the failed "
        "phase's completed scans and re-ships fewer subplans",
    ) + format_table(("failed peers", "discard (ubQL)", "phased"), rows)
    return write_report("phased", text)


def bench_discard_under_failure(benchmark):
    def run():
        return _run("discard", failures=1)

    rows, _, _ = benchmark(run)
    assert rows > 0
    report()


def bench_phased_under_failure(benchmark):
    def run():
        return _run("phased", failures=1)

    rows, phased_subplans, _ = benchmark(run)
    assert rows > 0
    _, discard_subplans, _ = _run("discard", failures=1)
    assert phased_subplans < discard_subplans


def bench_policies_agree_on_answers(benchmark):
    def run():
        return _run("phased", failures=2)[0]

    phased_rows = benchmark(run)
    discard_rows = _run("discard", failures=2)[0]
    assert phased_rows == discard_rows
