"""Experiment concurrency — serving throughput under offered load.

The paper's middleware is a *serving* system: many clients pose queries
against the SON at once, and Section 2.5's compile/execute machinery is
claimed cheap enough to run per query.  The seed repository only ever
ran one query to quiescence at a time, which measures latency but says
nothing about serving capacity.

This experiment drives one hybrid deployment (synthetic 4-peer dataset,
8 distinct chain queries, cold caches so every submission is real work,
fair per-query scheduling so peers model finite CPU) through rising
offered load with the ``repro.workload_engine`` open-loop driver, and
compares completed-queries-per-virtual-time and latency percentiles
against the sequential baseline (the seed's regime: each query runs to
quiescence before the next is posed).

Expected shape:

* Concurrency pays: at ≥8 queries in flight, throughput is a multiple
  of the sequential baseline — coordinations overlap their network
  waits exactly as independent client sessions should.
* Unbounded overload hurts the tail: with no admission control, the
  fair scheduler's backlog grows with everything that was admitted and
  p99 balloons.
* Admission control bounds the tail: the same overload with a bounded
  queue sheds the excess (with a retry-after) and p99 of what *was*
  served stays near the moderate-load tail.

``python -m benchmarks.bench_concurrency --smoke`` asserts all three
for CI.
"""

from __future__ import annotations

import sys

from repro.config import PeerConfig
from repro.errors import PeerError
from repro.systems import HybridSystem
from repro.workload_engine import AdmissionControl, WorkloadSpec
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import random_queries
from repro.workloads.schema_gen import generate_schema

from ._common import banner, format_table, write_report

SEED = 11
PEERS = 4
COUNT = 36
#: fair-scheduler quantum — one local work unit per virtual time unit
#: of peer CPU, slow enough that unbounded concurrency visibly queues
QUANTUM = 1.0
ADMISSION = AdmissionControl(
    max_concurrent=2, max_queued=2, retry_after=20.0
)


def _dataset():
    synthetic = generate_schema(
        chain_length=4, refinement_fraction=0.0, noise_properties=1, seed=SEED
    )
    peer_ids = [f"P{i}" for i in range(1, PEERS + 1)]
    generated = generate_bases(
        synthetic, peer_ids, Distribution.MIXED,
        statements_per_segment=15, shared_pool=6, seed=SEED,
    )
    texts = random_queries(synthetic, 8, max_length=3, seed=SEED)
    return synthetic, peer_ids, generated.bases, texts


def _deployment():
    synthetic, peer_ids, bases, _ = _dataset()
    system = HybridSystem(
        synthetic.schema, seed=SEED, config=PeerConfig(cache_enabled=False)
    )
    system.add_super_peer("SP")
    for peer_id in peer_ids:
        system.add_peer(peer_id, bases[peer_id], "SP")
    system.run()  # settle advertisements before measuring
    system.enable_fair_scheduling(quantum=QUANTUM)
    return system, peer_ids


def _catalog(peer_ids, texts):
    return tuple(
        (peer_ids[i % len(peer_ids)], texts[i % len(texts)])
        for i in range(COUNT)
    )


def _percentile(values, fraction):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def sequential_baseline() -> dict:
    """The seed regime: one query at a time, each to quiescence."""
    system, peer_ids = _deployment()
    _, _, _, texts = _dataset()
    network = system.network
    started = network.now
    latencies = []
    completed = 0
    for via, text in _catalog(peer_ids, texts):
        t0 = network.now
        try:
            system.query(via, text)
            completed += 1
        except PeerError:
            pass  # "no relevant peers" still consumes virtual time
        latencies.append(network.now - t0)
    duration = network.now - started
    return {
        "completed": completed,
        "shed": 0,
        "max_inflight": 1,
        "duration": duration,
        "throughput": completed / duration if duration else 0.0,
        "latency_p50": _percentile(latencies, 0.50),
        "latency_p99": _percentile(latencies, 0.99),
        "silent": 0,
    }


def concurrent_run(arrival_rate: float, burst_size: int,
                   admission: AdmissionControl = None) -> dict:
    system, peer_ids = _deployment()
    _, _, _, texts = _dataset()
    if admission is not None:
        system.enable_admission(admission)
    spec = WorkloadSpec(
        queries=_catalog(peer_ids, texts),
        count=COUNT,
        mode="open",
        arrival_rate=arrival_rate,
        burst_size=burst_size,
        clients=4,
        seed=SEED,
        resubmit_sheds=False,
    )
    return system.serve(spec).summary()


#: (row label, callable) — regenerated in order for the report table
REGIMES = [
    ("sequential (seed regime)", sequential_baseline),
    ("open loop, light (λ=0.25)", lambda: concurrent_run(0.25, 1)),
    ("open loop, moderate (λ=1, burst 4)", lambda: concurrent_run(1.0, 4)),
    ("open loop, overload (λ=4, burst 12)", lambda: concurrent_run(4.0, 12)),
    ("overload + admission control", lambda: concurrent_run(4.0, 12, ADMISSION)),
]


def measure() -> dict:
    return {label: run() for label, run in REGIMES}


def report() -> str:
    results = measure()
    rows = []
    for label, summary in results.items():
        rows.append((
            label,
            int(summary["completed"]),
            int(summary["shed"]),
            int(summary["max_inflight"]),
            f"{summary['throughput']:.3f}",
            f"{summary['latency_p50']:.1f}",
            f"{summary['latency_p99']:.1f}",
        ))
    text = banner(
        "concurrency",
        "serving throughput and tail latency under offered load",
        "concurrent serving must beat the sequential regime's throughput, "
        "and admission control must bound the served tail under overload",
    ) + format_table(
        ("regime", "completed", "shed", "max inflight",
         "throughput/vt", "p50", "p99"),
        rows,
    )
    sequential = results["sequential (seed regime)"]
    overload = results["open loop, overload (λ=4, burst 12)"]
    return write_report(
        "concurrency",
        text,
        params={
            "seed": SEED, "peers": PEERS, "count": COUNT,
            "quantum": QUANTUM, "cache_enabled": False,
            "admission": {
                "max_concurrent": ADMISSION.max_concurrent,
                "max_queued": ADMISSION.max_queued,
                "retry_after": ADMISSION.retry_after,
            },
        },
        metrics={
            "sequential_throughput": sequential["throughput"],
            "overload_throughput": overload["throughput"],
            "speedup": overload["throughput"] / sequential["throughput"]
            if sequential["throughput"] else 0.0,
        },
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_sequential_regime(benchmark):
    summary = benchmark(sequential_baseline)
    assert summary["completed"] > 0


def bench_concurrent_overload(benchmark):
    summary = benchmark(lambda: concurrent_run(4.0, 12))
    assert summary["max_inflight"] >= 8
    assert summary["silent"] == 0


def bench_concurrency_beats_sequential(benchmark):
    def run():
        return sequential_baseline(), concurrent_run(4.0, 12)

    sequential, overload = benchmark(run)
    assert overload["throughput"] > sequential["throughput"]


# ----------------------------------------------------------------------
# CI smoke mode
# ----------------------------------------------------------------------
def smoke() -> int:
    results = measure()
    sequential = results["sequential (seed regime)"]
    overload = results["open loop, overload (λ=4, burst 12)"]
    shedding = results["overload + admission control"]
    print(
        f"sequential {sequential['throughput']:.3f}/vt vs overload "
        f"{overload['throughput']:.3f}/vt (max {overload['max_inflight']:.0f} "
        f"in flight); admission: {shedding['shed']:.0f} shed, "
        f"p99 {shedding['latency_p99']:.1f} vs unbounded {overload['latency_p99']:.1f}"
    )
    failed = False
    if overload["max_inflight"] < 8:
        print("FAIL: overload regime never reached 8 queries in flight")
        failed = True
    if overload["throughput"] <= sequential["throughput"]:
        print("FAIL: concurrent serving did not beat the sequential baseline")
        failed = True
    if shedding["shed"] == 0:
        print("FAIL: admission control under overload shed nothing")
        failed = True
    if shedding["latency_p99"] > overload["latency_p99"]:
        print("FAIL: shedding did not bound the served p99")
        failed = True
    for label, summary in results.items():
        if summary["silent"]:
            print(f"FAIL: {summary['silent']:.0f} silent queries in {label!r}")
            failed = True
    if not failed:
        print("OK: concurrency pays, shedding bounds the tail, nobody starves")
    return 1 if failed else 0


def main(argv) -> int:
    if "--smoke" in argv:
        return smoke()
    print(report())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
