"""Experiment chaos — robustness under a faulty network (Sections 1/2.5).

The paper's premise is a network "where each peer base can join and
leave the network at will"; the seed simulator nevertheless delivered
every message and announced failures omnisciently.  This experiment
runs the hybrid and ad-hoc architectures under a realistic fault
regime — message loss, duplication, latency jitter and spikes, plus a
crash/recover cycle of a data peer mid-workload — with the resilience
layer on (retries with backoff, ack/retransmit channels, heartbeat
failure detection, quarantine routing, coverage-annotated partial
answers).  Invariants asserted:

* ≥ 90 % of queries answered (full or honestly-partial) at 10 % loss
  with a crash/recover cycle;
* no duplicate result rows under message duplication (exactly-once
  channel delivery via sequence-number dedup);
* bit-identical replay: two runs under the same seeds produce the same
  :meth:`~repro.resilience.harness.PlayReport.digest`.

``python -m benchmarks.bench_chaos --smoke`` prints the two digests
for the CI chaos-smoke job to diff across runs.
"""

from __future__ import annotations

import sys

from repro.resilience import FaultPlan, ResilienceConfig, run_chaos
from repro.scenario import Crash, Restart
from repro.systems import AdhocSystem, HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import generate_schema

from ._common import banner, format_table, write_report

SYNTH = generate_schema(chain_length=2, refinement_fraction=0.0, seed=47)
PEERS = [f"P{i}" for i in range(10)]
QUERY = chain_query(SYNTH, 0, 2)
#: the data peer that crashes mid-workload (never the coordinator P0)
VICTIM = "P3"


def _bases():
    return generate_bases(
        SYNTH, PEERS, Distribution.HORIZONTAL, statements_per_segment=4, seed=47
    ).bases


def _hybrid_system(seed: int) -> HybridSystem:
    system = HybridSystem(SYNTH.schema, seed=seed)
    system.add_super_peer("SP1")
    for peer_id, graph in _bases().items():
        system.add_peer(peer_id, graph, "SP1")
    system.run()
    system.enable_resilience(ResilienceConfig.default(seed))
    return system


def _adhoc_system(seed: int) -> AdhocSystem:
    system = AdhocSystem(SYNTH.schema, seed=seed)
    bases = _bases()
    for index, peer_id in enumerate(PEERS):
        neighbours = (
            PEERS[(index - 1) % len(PEERS)],
            PEERS[(index + 1) % len(PEERS)],
        )
        system.add_peer(peer_id, bases[peer_id], neighbours)
    system.discover_all()
    system.enable_resilience(ResilienceConfig.default(seed))
    return system


def _fault_plan(seed: int, loss: float) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        drop_rate=loss,
        duplicate_rate=loss / 2,
        jitter=0.5,
        spike_rate=0.05,
        spike_latency=8.0,
    )


#: t=6 lands inside the first query's channel deployment (sub-plans in
#: flight), so the crash is discovered through timeouts and repaired by
#: replanning — not dodged between queries
CRASH = (Crash(VICTIM, at=6.0), Restart(VICTIM, at=600.0))


def run_experiment(
    arch: str = "hybrid",
    seed: int = 7,
    loss: float = 0.10,
    queries: int = 8,
    with_crash: bool = True,
):
    system = _hybrid_system(seed) if arch == "hybrid" else _adhoc_system(seed)
    plan = _fault_plan(seed + 1, loss)
    workload = [("P0", QUERY)] * queries
    return run_chaos(system, workload, plan, CRASH if with_crash else ())


def report() -> str:
    rows = []
    for arch in ("hybrid", "adhoc"):
        for loss in (0.0, 0.10, 0.20):
            chaos = run_experiment(arch=arch, loss=loss)
            snap = chaos.snapshot
            rows.append((
                arch,
                f"{loss:.0%}",
                f"{chaos.count('full')}/{len(chaos.outcomes)}",
                chaos.count("partial"),
                chaos.count("error") + chaos.count("no-reply"),
                snap.retries,
                snap.retransmits,
                snap.suspicions,
                snap.dropped_messages,
            ))
    text = banner(
        "chaos",
        "Sections 1/2.5: query streams under loss, duplication and crashes",
        "peers join and leave at will; retries, failure detection and "
        "replanning keep the query stream answered without omniscient "
        "failure notification",
    ) + format_table(
        (
            "architecture",
            "loss",
            "full answers",
            "partial",
            "unanswered",
            "retries",
            "retransmits",
            "suspicions",
            "msgs dropped",
        ),
        rows,
    )
    return write_report(
        "chaos",
        text,
        params={
            "seed": 7,
            "queries": 8,
            "loss_rates": [0.0, 0.10, 0.20],
            "crash_victim": VICTIM,
        },
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points (assert the experiment's invariants)
# ----------------------------------------------------------------------
def bench_hybrid_survives_chaos(benchmark):
    chaos = benchmark(lambda: run_experiment(arch="hybrid"))
    assert chaos.answer_ratio >= 0.9
    report()


def bench_adhoc_survives_chaos(benchmark):
    chaos = benchmark(lambda: run_experiment(arch="adhoc"))
    assert chaos.answer_ratio >= 0.9


def bench_chaos_replay_is_deterministic(benchmark):
    first = benchmark(lambda: run_experiment(arch="hybrid"))
    second = run_experiment(arch="hybrid")
    assert first.digest() == second.digest()


def bench_duplication_keeps_rows_exact(benchmark):
    """Exactly-once delivery: heavy duplication must not inflate rows."""
    clean = run_experiment(arch="hybrid", loss=0.0, with_crash=False)
    baseline = {o.query_id: o.rows for o in clean.outcomes}

    def run():
        system = _hybrid_system(7)
        plan = FaultPlan(seed=11, duplicate_rate=0.4, jitter=0.5)
        return run_chaos(system, [("P0", QUERY)] * 8, plan)

    chaos = benchmark(run)
    for outcome in chaos.outcomes:
        assert outcome.status == "full"
        assert outcome.rows == baseline[outcome.query_id]


# ----------------------------------------------------------------------
# CI smoke mode: print deterministic digests for run-to-run diffing
# ----------------------------------------------------------------------
def smoke() -> str:
    lines = []
    for arch in ("hybrid", "adhoc"):
        chaos = run_experiment(arch=arch, queries=5)
        lines.append(f"== {arch}: {chaos.summary()}")
        lines.append(chaos.digest())
    return "\n".join(lines)


def main(argv) -> int:
    if "--smoke" in argv:
        print(smoke())
        return 0
    print(report())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
