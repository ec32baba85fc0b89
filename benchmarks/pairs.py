"""Alternating parent/change pairs of the gated benchmark, folded into
one ``BENCH_<pr>.json`` at the repo root.

The benchmark itself (``benchmarks/perf``, named by ``BENCHMARK.json``)
is driven, never edited: each run is the unmodified command

    python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0

in the parent's tree and in this one, and its last output line — one
JSON object with ``correct``, ``failed`` and the end-to-end metrics —
is all this script reads.  The parent is checked out with ``git
worktree add`` (local, no network) unless ``--parent`` names an
existing checkout.  Before the first pair both trees are byte-compiled
(``python -m compileall -q src benchmarks``), so neither side's runs pay
for compiling the package — a fresh checkout otherwise recompiles it in
every process.  Pairs alternate which side runs first: odd pairs
(the first, the third, ...) run the parent first.

Per workload and end-to-end metric the file holds each side's runs,
median and interquartile range, the pairs the change won (ties count
for neither side) and a verdict against the metric's ``BENCHMARK.json``
bound, which is read and never written:

* ``improved`` — the change won at least nine tenths of the pairs and
  its median beats the parent's by more than the parent's IQR;
* ``regressed`` — its median is worse than the parent's by more than
  the bound;
* ``unresolved`` — the parent's IQR, as a share of its median, is wider
  than the bound, so a move of that size cannot be told from noise
  (unless every change run beats every parent run);
* ``ok`` — none of these.

Run it from the repo root::

    python -m benchmarks.pairs --pr N --base <parent commit> --pairs 5
    python -m benchmarks.pairs --base HEAD --pairs 1 --seconds 2 \\
        --workload sim-join --out pair-smoke.json   # a null pair
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "perf" / "run.py"

#: one run's parsed last line, as ``benchmarks/perf/run.py`` prints it
Run = dict


def load_spec(root: Path = ROOT) -> dict:
    """``BENCHMARK.json``: the workloads, metrics and bounds."""
    return json.loads((root / "BENCHMARK.json").read_text())


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is its own."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def side(values: Sequence[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"runs": list(values), "median": median, "iqr": q3 - q1}


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Tuple[str, int]:
    """One metric's verdict and the pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * c < sign * p for p, c in zip(parent, change))
    q1, median_p, q3 = quartiles(parent)
    median_c = statistics.median(change)
    gain = sign * (median_p - median_c)  # positive: the change is better
    if won >= 0.9 * len(parent) and gain > q3 - q1:
        return "improved", won
    scale = abs(median_p) or 1.0
    if -gain / scale > bound:
        return "regressed", won
    if (q3 - q1) / scale > bound and not all(
        sign * c < sign * p for p in parent for c in change
    ):
        return "unresolved", won
    return "ok", won


def fold(pairs: Dict[str, List[Tuple[Run, Run]]], spec: dict) -> dict:
    """Fold ``{workload: [(parent run, change run), ...]}`` into the
    per-workload, per-metric summary ``BENCH_<pr>.json`` holds."""
    workloads = {}
    for name, runs in pairs.items():
        metrics = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            parent = [p["metrics"][key]["value"] for p, _ in runs]
            change = [c["metrics"][key]["value"] for _, c in runs]
            status, won = verdict(parent, change, metric["better"], metric["bound"])
            metrics[key] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": side(parent),
                "change": side(change),
                "pairs_won": won,
                "verdict": status,
            }
        workloads[name] = {
            "pairs": len(runs),
            "correct": all(p["correct"] and c["correct"] for p, c in runs),
            "failed": {
                "parent": [p["failed"] for p, _ in runs],
                "change": [c["failed"] for _, c in runs],
            },
            "metrics": metrics,
        }
    return workloads


def environment() -> Dict[str, str]:
    """What every process run in a tree inherits: ours, minus
    ``PYTHONPATH`` (each tree imports its own package)."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def compile_tree(tree: Path) -> None:
    """Byte-compile ``tree``'s package and benchmarks in place."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "benchmarks"],
                   cwd=tree, env=environment(), capture_output=True, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Run:
    """One unmodified benchmark run in ``tree``; its last line."""
    command = [sys.executable, str(RUNNER), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, env=environment(), capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(parent: Path, workloads: Sequence[str], count: int, seed: int,
            seconds: float) -> Dict[str, List[Tuple[Run, Run]]]:
    pairs: Dict[str, List[Tuple[Run, Run]]] = {}
    for tree in (parent, ROOT):
        compile_tree(tree)
    for workload in workloads:
        for index in range(count):
            parent_first = index % 2 == 0  # the first, third, ... pair
            order = [parent, ROOT] if parent_first else [ROOT, parent]
            runs = {tree: run_once(tree, workload, seed, seconds) for tree in order}
            pairs.setdefault(workload, []).append((runs[parent], runs[ROOT]))
            print(f"{workload} pair {index + 1}/{count} "
                  f"({'parent' if parent_first else 'change'} first)",
                  file=sys.stderr, flush=True)
    return pairs


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, help="writes BENCH_<pr>.json at the root")
    parser.add_argument("--out", help="where to write instead")
    parser.add_argument("--base", default="HEAD", help="the parent commit")
    parser.add_argument("--parent", help="an existing checkout of the parent")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.out is None and args.pr is None:
        parser.error("give --pr or --out")
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    base = git("rev-parse", args.base)
    with tempfile.TemporaryDirectory() as scratch:
        parent = Path(args.parent) if args.parent else Path(scratch) / "parent"
        if not args.parent:
            git("worktree", "add", "--detach", str(parent), base)
        try:
            pairs = measure(parent, workloads, args.pairs, args.seed, args.seconds)
        finally:
            if not args.parent:
                git("worktree", "remove", "--force", str(parent))
    result = {
        "pr": args.pr,
        "parent": base,
        "change": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "command": f"python3 {RUNNER} --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": fold(pairs, spec),
    }
    out.write_text(json.dumps(result, indent=2) + "\n")
    for name, entry in result["workloads"].items():
        for key, row in entry["metrics"].items():
            print(f"{name:12} {key:22} {row['parent']['median']:>12.4g} -> "
                  f"{row['change']['median']:<12.4g} won {row['pairs_won']}/"
                  f"{entry['pairs']}  {row['verdict']}")
    # a wrong answer or a regressed metric fails the run
    bad = any(
        not entry["correct"] or row["verdict"] == "regressed"
        for entry in result["workloads"].values()
        for row in entry["metrics"].values()
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
