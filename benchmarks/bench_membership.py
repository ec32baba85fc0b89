"""Experiment membership — dynamic churn with durable recovery.

The robustness claim of the membership subsystem: peers can crash,
recover from their durable state (snapshot + membership-log replay)
and rejoin a serving deployment, and the deployment's answer quality
follows the membership — full answers while healthy, honest
coverage-annotated partials while degraded, full answers again once
the crashed peer rejoins and a mid-run joiner only widens coverage.

Three measurements:

* **Availability through churn**: a scripted crash → rejoin → join
  scenario over several dataset seeds, counting full vs partial
  answers per membership phase.
* **Recovery cost**: wall-clock to recover a peer's state as the
  membership log grows (replay is linear in committed records).
* **Live restart**: wall-clock from SIGKILL to the first full-coverage
  answer coordinated by the restarted process (includes supervised
  respawn, durable recovery and the rejoin advertisement round-trip).

``python -m benchmarks.bench_membership --smoke`` asserts the healed
phases answer fully and recovery metrics count, for CI.
"""

from __future__ import annotations

import itertools
import sys
import tempfile
import time
from pathlib import Path

from repro.deploy import ClusterSpec, LiveCluster, build_sim_system, build_workload
from repro.durability import MemoryStore, PeerStateStore
from repro.membership import MembershipManager
from repro.rvl import ActiveSchema
from repro.scenario import Crash, Join, Query, Restart, Scenario, play

from ._common import banner, format_table, write_report

SEEDS = (0, 1, 2)
VICTIM = "P2"
JOINER = "P4"
#: (phase name, the event that opens it, coordinators) — the victim
#: crashes after ``healthy``, restarts from its durable state after
#: ``degraded``, and the joiner arrives after ``healed``.
PHASES = (
    ("healthy", None, ("P1", "P2", "P3", "P1")),
    ("degraded", Crash(VICTIM), ("P1", "P3", "P1")),
    ("healed", Restart(VICTIM), ("P2", "P3")),
    ("grown", Join(JOINER), ("P4", "P1", "P2")),
)


def churn_scenario(queries, churn: bool = True) -> Scenario:
    """The scripted cycle: the ``PHASES``' events and queries in turn,
    the workload's queries in rotation.  ``churn=False`` keeps only the
    join."""
    events, texts = [], itertools.cycle(queries)
    for _, event, coordinators in PHASES:
        if isinstance(event, Join) or (event is not None and churn):
            events.append(event)
        events += [Query(via, next(texts)) for via in coordinators]
    return Scenario(events)


def run_churn_sim(seed: int, churn: bool = True) -> dict:
    """One scripted cycle in-sim; outcomes bucketed by phase.

    With ``churn=False`` the victim never crashes (the joiner still
    arrives): the never-crashed twin whose answers the healed phases
    are held against — some seeded queries are partial even with every
    peer up, so "no partials after rejoin" would be the wrong oracle.
    """
    spec = ClusterSpec(seed=seed, peers=3, super_peers=1,
                      resilient=True, joiners=1)
    workload = build_workload(spec)
    system = build_sim_system(spec, workload)
    MembershipManager(system).attach_all()

    started = time.perf_counter()
    outcomes = [
        outcome.status for outcome in play(
            churn_scenario(workload.queries, churn), system, bases=workload.bases
        )
    ]
    phases = {}
    start = 0
    for phase, _, coordinators in PHASES:
        statuses = outcomes[start:start + len(coordinators)]
        start += len(coordinators)
        full, partial = statuses.count("full"), statuses.count("partial")
        phases[phase] = {
            "full": full, "partial": partial, "errors": len(statuses) - full - partial,
        }
    metrics = system.network.metrics
    return {
        "seed": seed,
        "phases": phases,
        "outcomes": [status if status in ("full", "partial") else "error"
                     for status in outcomes],
        "duration_s": time.perf_counter() - started,
        "rejoins": metrics.rejoins,
        "recoveries": metrics.recoveries,
        "joins": metrics.joins,
        "snapshot_bytes": metrics.snapshot_bytes,
        "log_replays": metrics.log_replays,
    }


def run_recovery_cost(record_counts=(10, 100, 500)) -> list:
    """Wall-clock of ``recover()`` as the membership log grows."""
    spec = ClusterSpec(seed=0, peers=3, super_peers=1)
    workload = build_workload(spec)
    schema = workload.synthetic.schema
    advertisement = ActiveSchema.from_base(workload.bases["P1"], schema, "P1")
    rows = []
    for count in record_counts:
        store = PeerStateStore(MemoryStore(), "P1")
        store.save_snapshot(workload.bases["P1"])
        for _ in range(count):
            store.log_advertise(advertisement)
        t0 = time.perf_counter()
        recovered = store.recover()
        elapsed = time.perf_counter() - t0
        rows.append({
            "records": count,
            "recover_ms": elapsed * 1e3,
            "replayed": recovered.replayed,
        })
    return rows


def run_live_restart() -> dict:
    """SIGKILL → supervised-style restart → first full answer, live."""
    spec = ClusterSpec(seed=0, peers=3, super_peers=1, resilient=True)
    workload = build_workload(spec)
    with tempfile.TemporaryDirectory(prefix="bench-membership-") as tmp:
        cluster = LiveCluster(spec, Path(tmp) / "run",
                              statedir=Path(tmp) / "run" / "state")
        try:
            cluster.start()
            baseline = cluster.query(VICTIM, workload.queries[0])
            cluster.kill_peer(VICTIM, sig="kill")
            cluster.processes[VICTIM].wait(timeout=30)
            t0 = time.perf_counter()
            cluster.restart_peer(VICTIM)
            restart_s = time.perf_counter() - t0
            healed = cluster.query(VICTIM, workload.queries[0])
            heal_s = time.perf_counter() - t0
        finally:
            summary = cluster.shutdown()
    return {
        "restart_s": restart_s,
        "first_full_answer_s": heal_s,
        "healed_rows": None if healed.table is None else len(healed.table),
        "baseline_rows": None if baseline.table is None else len(baseline.table),
        "healed_matches_baseline": (
            healed.error is None and healed.coverage is None
            and baseline.table is not None and healed.table == baseline.table
        ),
        "first_exit_code": summary["first_exit_codes"].get(VICTIM),
    }


def measure(live: bool = True) -> dict:
    churn = [run_churn_sim(seed) for seed in SEEDS]
    return {
        "churn": churn,
        "recovery": run_recovery_cost(),
        "live": run_live_restart() if live else None,
    }


def report() -> str:
    results = measure()
    phase_rows = []
    for phase, _, _ in PHASES:
        full = sum(run["phases"][phase]["full"] for run in results["churn"])
        partial = sum(run["phases"][phase]["partial"] for run in results["churn"])
        errors = sum(run["phases"][phase]["errors"] for run in results["churn"])
        phase_rows.append((phase, full, partial, errors))
    recovery_rows = [
        (row["records"], f"{row['recover_ms']:.2f}") for row in results["recovery"]
    ]
    live = results["live"]
    text = banner(
        "membership",
        "dynamic churn: crash, durable recovery, rejoin, mid-run join",
        "answers track membership — full while healthy, honest partials "
        "while degraded, full again after recovery; log replay is linear",
    )
    text += format_table(("phase", "full", "partial", "errors"), phase_rows)
    text += "\n" + format_table(("log records", "recover ms"), recovery_rows)
    text += (
        f"\nlive SIGKILL -> restart {live['restart_s']:.2f}s, "
        f"first full answer {live['first_full_answer_s']:.2f}s "
        f"(rows {live['healed_rows']}, matches baseline: "
        f"{live['healed_matches_baseline']})\n"
    )
    return write_report(
        "membership",
        text,
        params={"seeds": list(SEEDS), "peers": 3, "super_peers": 1,
                "victim": VICTIM, "joiner": JOINER},
        metrics={
            "degraded_full": sum(r["phases"]["degraded"]["full"] for r in results["churn"]),
            "healed_partial": sum(r["phases"]["healed"]["partial"] for r in results["churn"]),
            "recover_ms_500": results["recovery"][-1]["recover_ms"],
            "live_restart_s": live["restart_s"],
            "live_first_full_answer_s": live["first_full_answer_s"],
        },
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_churn_cycle_sim(benchmark):
    summary = benchmark(lambda: run_churn_sim(0))
    assert summary["recoveries"] == 1


def bench_log_replay(benchmark):
    rows = benchmark(lambda: run_recovery_cost((500,)))
    assert rows[0]["replayed"] == 500


# ----------------------------------------------------------------------
# CI smoke mode
# ----------------------------------------------------------------------
#: Query index where the rejoin lands (start of the ``healed`` phase).
HEALED_FROM = len(PHASES[0][2]) + len(PHASES[1][2])


def smoke() -> int:
    results = measure(live=False)
    failed = False
    for run in results["churn"]:
        twin = run_churn_sim(run["seed"], churn=False)
        print(
            f"seed {run['seed']}: phases {run['phases']} "
            f"(rejoins={run['rejoins']} recoveries={run['recoveries']} "
            f"joins={run['joins']})"
        )
        if run["outcomes"][HEALED_FROM:] != twin["outcomes"][HEALED_FROM:]:
            print(
                f"FAIL: seed {run['seed']} post-rejoin outcomes "
                f"{run['outcomes'][HEALED_FROM:]} differ from the "
                f"never-crashed twin's {twin['outcomes'][HEALED_FROM:]}"
            )
            failed = True
        if run["recoveries"] != 1 or run["rejoins"] < 1:
            print(f"FAIL: seed {run['seed']} recovery metrics did not count")
            failed = True
    replay = results["recovery"][-1]
    print(f"log replay: {replay['records']} records in {replay['recover_ms']:.2f}ms")
    if replay["replayed"] != replay["records"]:
        print("FAIL: recovery did not replay every committed record")
        failed = True
    if not failed:
        print("OK: churned deployments heal after rejoin; replay is complete")
    return 1 if failed else 0


def main(argv) -> int:
    if "--smoke" in argv:
        return smoke()
    print(report())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
