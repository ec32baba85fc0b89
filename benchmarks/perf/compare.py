"""``--compare A.json B.json``: apply the bounds per (workload, metric).

``A`` is the parent's suite result, ``B`` the change's.  Each end-to-end
metric of each workload gets one row:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — the run-to-run spread inside A is wider than the
  bound, so a move of that size cannot be told from noise — unless
  every run of B reads better than every run of A, which is ``ok``.

The bounds are the ones ``BENCHMARK.json`` fixes, plus two the driver's
contract has no slot for (``spec.SUITE_ONLY``): ``update_apply_p50_ms``
(``sim-updates`` only) and ``failed_fraction``, whose bound is 0 — *any*
increase regresses, so its rows compare the worst run of each side, not
the medians: one failing run among five must not hide behind a median
of 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from .spec import SPEC, SUITE_ONLY


def bounds() -> Dict[str, Tuple[str, float]]:
    """``metric -> (better, bound)`` for every end-to-end metric."""
    out = {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}
    out.update({name: (better, bound) for name, (_, better, bound) in SUITE_ONLY.items()})
    return out


def spread(values: List[float]) -> float:
    """Run-to-run spread: the distance between the quartiles as a share
    of the median."""
    median = statistics.median(values)
    if not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """One row's status (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:
        worst = max if better == "lower" else min
        return "regressed" if sign * (worst(b) - worst(a)) > 0 else "ok"
    median_a, median_b = statistics.median(a), statistics.median(b)
    if median_a:
        worse_by = sign * (median_b - median_a) / abs(median_a)
    else:
        worse_by = sign * (median_b - median_a)
    if spread(a) > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "ok"
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(a: dict, b: dict) -> List[dict]:
    """Rows for every (workload, metric) present in both results."""
    rows = []
    limits = bounds()
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric, (better, bound) in limits.items():
            if metric not in entry_a["end_to_end"] or metric not in entry_b["end_to_end"]:
                continue
            values_a = entry_a["end_to_end"][metric]["values"]
            values_b = entry_b["end_to_end"][metric]["values"]
            if len(values_a) != len(values_b):
                raise ValueError(
                    f"{name}: A has {len(values_a)} runs and B {len(values_b)}; "
                    "the spread rule needs equal sets"
                )
            rows.append({
                "workload": name,
                "metric": metric,
                "a": statistics.median(values_a),
                "b": statistics.median(values_b),
                "bound": bound,
                "spread_a": spread(values_a),
                "status": verdict(values_a, values_b, better, bound),
            })
    return rows


def render(rows: List[dict]) -> str:
    lines = [
        f"{'workload':<12} {'metric':<22} {'A median':>14} {'B median':>14} "
        f"{'change':>8} {'bound':>6} {'spread A':>9}  status"
    ]
    for row in rows:
        change = (row["b"] - row["a"]) / abs(row["a"]) if row["a"] else 0.0
        lines.append(
            f"{row['workload']:<12} {row['metric']:<22} {row['a']:>14.4f} "
            f"{row['b']:>14.4f} {change:>+8.1%} {row['bound']:>6.0%} "
            f"{row['spread_a']:>9.1%}  {row['status']}"
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    """Print the rows; exit 1 when any row regressed, 2 when none did
    but some could not be told from noise."""
    rows = compare(
        json.loads(Path(path_a).read_text()), json.loads(Path(path_b).read_text())
    )
    print(render(rows))
    counts = {s: sum(1 for r in rows if r["status"] == s)
              for s in ("ok", "regressed", "unresolved")}
    print(f"{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["regressed"] else 2 if counts["unresolved"] else 0
