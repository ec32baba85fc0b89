"""Experiment transport — live TCP deployment vs the simulator.

The tentpole claim of the transport subsystem: the protocol stack is
transport-agnostic, so the *same* seeded workload served by real OS
processes over localhost TCP (``AsyncioTransport``) must return exactly
the answers the virtual-clock simulator returns — and the simulator
must remain the cheap dev loop.

This experiment brings up a live 1-super-peer/3-peer cluster
(``repro.deploy``), serves a 12-query seeded workload through it, and
serves the identical workload through the in-sim twin, measuring
wall-clock bring-up, per-query latency and end-to-end throughput for
both.  Answers are compared row-for-row.

Expected shape:

* Fidelity: every live answer (rows, errors, coverage annotations) is
  identical to the sim twin's — zero divergences.
* Cost: the simulator is several times faster per query in wall-clock
  terms (one process, no codec, no TCP) and needs no process spawn,
  which is why it stays the default transport for development and CI.
* Waiting: the live path is event-driven, so a localhost query answers
  in single-digit milliseconds — far under the 100 ms quantum the
  launcher once polled at.

``python -m benchmarks.bench_transport --smoke`` asserts all three for CI.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro.deploy import ClusterSpec, LiveCluster, build_sim_system, build_workload
from repro.resilience.harness import percentile

from ._common import banner, format_table, write_report

SEED = 0
QUERIES = 12
#: The 100 ms quantum ``run_until`` once polled at (5 virtual units at
#: the default time scale): every live query took at least this long.
#: Generous for a shared runner, impossible to meet if polling returns.
OLD_POLL_QUANTUM_MS = 100.0


def _sequence(spec, workload):
    peer_ids = spec.peer_ids()
    return [
        (peer_ids[i % len(peer_ids)], workload.queries[i % len(workload.queries)])
        for i in range(QUERIES)
    ]


def _outcome(result):
    rows = None if result.table is None else len(result.table)
    return (result.error, rows, result.coverage)


def run_sim(spec, workload) -> dict:
    t0 = time.perf_counter()
    system = build_sim_system(spec, workload)
    bring_up = time.perf_counter() - t0
    latencies, outcomes = [], []
    started = time.perf_counter()
    for via, text in _sequence(spec, workload):
        client = system.add_client()
        q0 = time.perf_counter()
        query_id = client.submit(via, text)
        system.network.run()
        latencies.append(time.perf_counter() - q0)
        outcomes.append(_outcome(client.result(query_id)))
    duration = time.perf_counter() - started
    return {
        "transport": "sim",
        "bring_up_s": bring_up,
        "duration_s": duration,
        "throughput_qps": QUERIES / duration if duration else 0.0,
        "latency_p50_ms": percentile(sorted(latencies), 0.50) * 1e3,
        "latency_p99_ms": percentile(sorted(latencies), 0.99) * 1e3,
        "outcomes": outcomes,
    }


def run_live(spec, workload) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-transport-") as tmp:
        cluster = LiveCluster(spec, Path(tmp) / "run")
        try:
            t0 = time.perf_counter()
            cluster.start()
            bring_up = time.perf_counter() - t0
            latencies, outcomes = [], []
            started = time.perf_counter()
            for via, text in _sequence(spec, workload):
                q0 = time.perf_counter()
                # the unpaced primitives: what the transport costs, not
                # the interval query() spaces a closed loop at
                client, query_id = cluster.submit(via, text)
                result = cluster.await_result(client, query_id)
                latencies.append(time.perf_counter() - q0)
                outcomes.append(_outcome(result))
            duration = time.perf_counter() - started
        finally:
            cluster.shutdown()
    return {
        "transport": "asyncio",
        "bring_up_s": bring_up,
        "duration_s": duration,
        "throughput_qps": QUERIES / duration if duration else 0.0,
        "latency_p50_ms": percentile(sorted(latencies), 0.50) * 1e3,
        "latency_p99_ms": percentile(sorted(latencies), 0.99) * 1e3,
        "outcomes": outcomes,
    }


def measure() -> dict:
    spec = ClusterSpec(seed=SEED, peers=3, super_peers=1)
    workload = build_workload(spec)
    sim = run_sim(spec, workload)
    live = run_live(spec, workload)
    divergences = sum(
        1 for a, b in zip(sim["outcomes"], live["outcomes"]) if a != b
    )
    return {"sim": sim, "live": live, "divergences": divergences}


def report() -> str:
    results = measure()
    rows = []
    for summary in (results["sim"], results["live"]):
        rows.append((
            summary["transport"],
            f"{summary['bring_up_s']:.3f}",
            QUERIES,
            f"{summary['throughput_qps']:.1f}",
            f"{summary['latency_p50_ms']:.1f}",
            f"{summary['latency_p99_ms']:.1f}",
        ))
    rows.append((
        "divergences", "-", "-", "-", "-", str(results["divergences"]),
    ))
    text = banner(
        "transport",
        "live TCP multi-process deployment vs the virtual-clock simulator",
        "the protocol stack is transport-agnostic: live answers are "
        "identical to sim, while the simulator stays the cheap dev loop",
    ) + format_table(
        ("transport", "bring-up s", "queries",
         "throughput q/s", "p50 ms", "p99 ms"),
        rows,
    )
    return write_report(
        "transport",
        text,
        params={"seed": SEED, "peers": 3, "super_peers": 1, "queries": QUERIES},
        metrics={
            "sim_throughput_qps": results["sim"]["throughput_qps"],
            "live_throughput_qps": results["live"]["throughput_qps"],
            "live_latency_p50_ms": results["live"]["latency_p50_ms"],
            "live_bring_up_s": results["live"]["bring_up_s"],
            "divergences": results["divergences"],
        },
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_sim_workload(benchmark):
    spec = ClusterSpec(seed=SEED, peers=3, super_peers=1)
    workload = build_workload(spec)
    summary = benchmark(lambda: run_sim(spec, workload))
    assert len(summary["outcomes"]) == QUERIES


def bench_live_matches_sim(benchmark):
    def run():
        return measure()

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert results["divergences"] == 0


# ----------------------------------------------------------------------
# CI smoke mode
# ----------------------------------------------------------------------
def smoke() -> int:
    results = measure()
    sim, live = results["sim"], results["live"]
    print(
        f"sim {sim['throughput_qps']:.1f} q/s vs live "
        f"{live['throughput_qps']:.1f} q/s (p50 {live['latency_p50_ms']:.1f} ms, "
        f"bring-up {live['bring_up_s']:.2f}s); "
        f"{results['divergences']} divergences over {QUERIES} queries"
    )
    failed = False
    if results["divergences"]:
        print(f"FAIL: {results['divergences']} live answers diverged from sim")
        failed = True
    if live["throughput_qps"] <= 0:
        print("FAIL: live cluster served nothing")
        failed = True
    if sim["throughput_qps"] <= live["throughput_qps"]:
        print("FAIL: the simulator should out-run real TCP on wall-clock")
        failed = True
    if live["latency_p50_ms"] > OLD_POLL_QUANTUM_MS:
        print(f"FAIL: live p50 {live['latency_p50_ms']:.1f} ms exceeds the old "
              f"{OLD_POLL_QUANTUM_MS:.0f} ms poll quantum: is the wait polling again?")
        failed = True
    if not failed:
        print("OK: live answers identical to sim; sim remains the cheap loop; "
              "live waits are event-driven")
    return 1 if failed else 0


def main(argv) -> int:
    if "--smoke" in argv:
        return smoke()
    print(report())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
