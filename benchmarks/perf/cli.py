"""Command line of the benchmark.

Two ways in, one CLI:

* **One run** — what ``BENCHMARK.json``'s command does::

      python3 benchmarks/perf/run.py --workload sim-join --seed 3 \\
          --seconds 20 --trace 0

  runs one workload in this process, prints every metric by name and
  unit and ends with one JSON line ``{"correct", "attempted", "failed",
  "metrics"}``: the end-to-end metrics with ``--trace 0``, the
  per-layer metrics with ``--trace 1``.

* **The suite** — ``python3 benchmarks/perf/run.py --seed 3`` (or
  ``PYTHONPATH=src python -m benchmarks.perf --seed 3``) runs every
  workload five times untraced and once traced, each run in a fresh
  subprocess (cold caches, its own peak RSS), and writes one JSON
  result (``--out``).  ``--compare A.json B.json`` judges two such
  results; ``--smoke`` is the quick self-check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import compare as compare_mod
from .measure import environment, run
from .spec import END_TO_END, PER_LAYER, RUN_SECONDS, SUITE_ONLY, SUITE_RUNS
from .trace import SpanRecorder
from .workloads import SMOKE_SCALE, WORK_DIR, WORKLOADS

RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: same seed, same inputs")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="length of a run; sets its number of epochs")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run in this process: 0 prints the end-to-end "
                             "metrics, 1 the per-layer metrics of a traced run")
    parser.add_argument("--traced", dest="traced", action="store_true", default=True,
                        help="suite: also make the traced run (default)")
    parser.add_argument("--no-traced", dest="traced", action="store_false",
                        help="suite: untraced runs only")
    parser.add_argument("--out", help="write the JSON result here")
    parser.add_argument("--spans", help="one traced run: write its raw spans "
                                        "here, one JSON object per line")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at 1/20 of the counts, with checks")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="judge result B against result A")
    return parser


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
#: units of everything an untraced run reports
UNTRACED_UNITS = dict(END_TO_END, **{name: unit for name, (unit, _, _) in SUITE_ONLY.items()})


def _section(report: dict):
    """The metrics a run reports and the declared ``name -> unit`` map."""
    if report["traced"]:
        return report["per_layer"], PER_LAYER
    return report["end_to_end"], END_TO_END


def _print_metrics(report: dict) -> None:
    values, units = _section(report)
    env = report["environment"]
    print(f"# {report['workload']} seed={report['seed']} "
          f"{'traced' if report['traced'] else 'untraced'}: "
          f"{report['epochs']} epochs in {report['measured_s']:.1f} s; "
          f"python {env['python']}, {env['nproc']} cores, "
          f"load {env['loadavg_1m']:.2f} -> {env['loadavg_1m_end']:.2f}")
    for kind, count in report["attempted"].items():
        if count:
            print(f"# {kind} operations attempted: {count}")
    print(f"# operations failed: {report['failed']}; latency samples: "
          f"{report['latency_samples_per_epoch']} per epoch")
    for name, value in values.items():
        unit = units.get(name) or UNTRACED_UNITS[name]  # update_apply_p50_ms
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:<40} {shown:>14} {unit}")
    for path in report.get("unresolved_targets", ()):
        print(f"# unresolved span target: {path}")


def driver_line(report: dict) -> str:
    """The last line the driver reads.  A per-layer metric that does not
    apply to the workload, or whose span target is gone, is ``null`` in
    the report and 0 here (the contract wants a number)."""
    values, units = _section(report)
    metrics = {
        name: {"value": values.get(name) or 0.0, "unit": unit}
        for name, unit in units.items()
    }
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": sum(report["attempted"].values()),
        "failed": report["failed"],
        "metrics": metrics,
    })


def one_run(args) -> int:
    if args.workload is None:
        print("--trace needs --workload", file=sys.stderr)
        return 2
    recorder = SpanRecorder() if args.trace else None
    report = run(
        WORKLOADS[args.workload], args.seed, args.seconds,
        traced=bool(args.trace), recorder=recorder,
    )
    for line in report["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2))
    if args.spans and recorder is not None:
        with open(args.spans, "w") as handle:
            for span in recorder.span_dicts():
                handle.write(json.dumps(span) + "\n")
    _print_metrics(report)
    print(driver_line(report))
    return 0


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def _subprocess_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh interpreter; returns its full report."""
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="suite-", dir=WORK_DIR) as tmp:
        out = Path(tmp) / "report.json"
        completed = subprocess.run(
            [sys.executable, str(RUN_SCRIPT), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--out", str(out)],
            stdout=subprocess.DEVNULL, timeout=600,
        )
        if completed.returncode != 0 or not out.exists():
            raise RuntimeError(
                f"{workload} (trace {trace}) exited with {completed.returncode}"
            )
        return json.loads(out.read_text())


def _summary(values: List[float], unit: str) -> Dict[str, object]:
    return {
        "unit": unit,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def suite(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    result: Dict[str, object] = {
        "schema": "benchmarks.perf/suite-v1",
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": SUITE_RUNS,
        "environment": environment(),
        "workloads": {},
    }
    for name in names:
        print(f"== {name}: {WORKLOADS[name].why}")
        runs = []
        for index in range(SUITE_RUNS):
            report = _subprocess_run(name, args.seed, args.seconds, 0)
            runs.append(report)
            print(f"   run {index + 1}/{SUITE_RUNS}: "
                  f"{report['end_to_end']['throughput_qps']:.2f} q/s, "
                  f"{report['failed']} failed")
        end_to_end = {
            metric: _summary([r["end_to_end"][metric] for r in runs], UNTRACED_UNITS[metric])
            for metric in runs[0]["end_to_end"]
        }
        attempted = sum(sum(r["attempted"].values()) for r in runs)
        end_to_end["failed_fraction"] = _summary(
            [r["failed"] / max(1, sum(r["attempted"].values())) for r in runs],
            UNTRACED_UNITS["failed_fraction"],
        )
        entry: Dict[str, object] = {
            "why": WORKLOADS[name].why,
            "attempted": attempted,
            "failed": sum(r["failed"] for r in runs),
            "latency_samples_per_epoch": runs[0]["latency_samples_per_epoch"],
            "epochs_per_run": runs[0]["epochs"],
            "end_to_end": end_to_end,
            "runs": runs,
        }
        for metric, summary in end_to_end.items():
            print(f"   {metric:<24} {summary['median']:>14.6g} {summary['unit']:<6}"
                  f" [{summary['min']:.6g} .. {summary['max']:.6g}]")
        if args.traced:
            traced = _subprocess_run(name, args.seed, args.seconds, 1)
            entry["per_layer"] = {
                metric: {"unit": PER_LAYER[metric], "value": value}
                for metric, value in traced["per_layer"].items()
            }
            entry["unresolved_targets"] = traced["unresolved_targets"]
            entry["traced_run"] = traced
            for metric, value in traced["per_layer"].items():
                shown = "null" if value is None else f"{value:.6g}"
                print(f"   {metric:<40} {shown:>14} {PER_LAYER[metric]}")
        result["workloads"][name] = entry
    result["environment"]["loadavg_1m_end"] = environment()["loadavg_1m"]
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2))
        print(f"wrote {args.out}")
    return 1 if any(w["failed"] for w in result["workloads"].values()) else 0


# ----------------------------------------------------------------------
# smoke
# ----------------------------------------------------------------------
def smoke() -> int:
    """Every workload at 1/20 of the counts, one untraced and one traced
    run each: the output schema holds, nothing fails, and a sim
    workload's exact counts are equal across the in-process repeats."""
    started = time.perf_counter()
    problems: List[str] = []
    for name, workload in WORKLOADS.items():
        plain = run(workload, seed=1, seconds=0.0, traced=False, scale=SMOKE_SCALE)
        traced = run(workload, seed=1, seconds=0.0, traced=True, scale=SMOKE_SCALE)
        for report in (plain, traced):
            if report["failed"]:
                problems.append(f"{name}: {report['failed']} failed: {report['failures'][:3]}")
        line = json.loads(driver_line(plain))
        if set(line) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{name}: result line keys {sorted(line)}")
        if not set(END_TO_END) <= set(plain["end_to_end"]) <= set(UNTRACED_UNITS):
            problems.append(f"{name}: end-to-end metrics {sorted(plain['end_to_end'])}")
        if any(not m["value"] > 0 for m in line["metrics"].values()):
            problems.append(f"{name}: an end-to-end metric is not positive")
        if set(traced["per_layer"]) != set(PER_LAYER):
            problems.append(f"{name}: per-layer metrics differ from the declared set")
        if traced["unresolved_targets"]:
            problems.append(f"{name}: unresolved {traced['unresolved_targets']}")
        if not workload.live:
            # three epochs in two runs, one of them traced: exact counts
            counts = {
                (e["messages"], e["bytes"])
                for e in plain["epoch_detail"] + traced["epoch_detail"]
            }
            if len(counts) != 1:
                problems.append(f"{name}: counts differ across repeats: {sorted(counts)}")
        print(f"smoke {name}: {sum(plain['attempted'].values())} operations, "
              f"{plain['end_to_end']['throughput_qps']:.1f} q/s, "
              f"coverage {traced['per_layer']['trace.coverage']:.2f}")
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print(f"smoke: {len(problems)} problems in {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        return compare_mod.main(*args.compare)
    if args.smoke:
        return smoke()
    if args.trace is not None:
        return one_run(args)
    return suite(args)
