"""Shared helpers for the benchmark/reproduction harness.

Every ``bench_<id>.py`` module provides

* ``report() -> str`` — the experiment's paper-vs-measured table, and
* one or more ``bench_*`` functions using pytest-benchmark.

``python benchmarks/run_all.py`` regenerates every report into
``benchmarks/results/`` (the source for EXPERIMENTS.md); ``pytest
benchmarks/ --benchmark-only`` times the underlying operations and
asserts each experiment's qualitative shape.

Alongside each human-readable ``<id>.txt`` report, :func:`write_report`
emits a machine-readable ``<id>.json`` with the stable schema
``repro.bench/result-v1``: experiment name, title, paper claim, the
parsed paper-vs-measured table, the run's parameters and — when the
experiment passes its :meth:`~repro.metrics.MetricSet.summary` — the
metrics summary including latency percentiles.  CI uploads these as
artifacts so result drift is diffable across commits.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Optional, Sequence

import repro.peers.client

# these experiments time the engine, not a client's pace (benchmarks/perf,
# the gated benchmark, does not import this module and runs paced)
repro.peers.client.SUBMIT_TIME_SCALE = 0.0

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: schema tag stamped into every results/*.json
RESULT_SCHEMA = "repro.bench/result-v1"


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned text table."""
    materialised: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in materialised)
    return "\n".join(out)


def _parse_banner(text: str) -> dict:
    """Recover title/claim from the :func:`banner` prefix of a report."""
    out = {"title": "", "claim": ""}
    for line in text.splitlines():
        if line.startswith("reproduces :"):
            out["title"] = line.split(":", 1)[1].strip()
        elif line.startswith("paper claim:"):
            out["claim"] = line.split(":", 1)[1].strip()
    return out


def _parse_table(text: str):
    """Recover (headers, rows) from a :func:`format_table` block.

    The dash rule under the header encodes the exact column widths, so
    cells are sliced positionally — no guessing on cell contents.
    """
    lines = text.splitlines()
    for index in range(1, len(lines)):
        line = lines[index]
        if line and set(line) <= {"-", " "}:
            spans = []
            offset = 0
            for chunk in line.split("  "):
                spans.append((offset, offset + len(chunk)))
                offset += len(chunk) + 2
            headers = [lines[index - 1][a:b].strip() for a, b in spans]
            rows = []
            for row_line in lines[index + 1:]:
                if not row_line.strip():
                    break
                rows.append([row_line[a:b].strip() for a, b in spans])
            return headers, rows
    return [], []


def write_report(
    experiment_id: str,
    text: str,
    *,
    params: Optional[dict] = None,
    metrics: Optional[dict] = None,
) -> str:
    """Persist a report under benchmarks/results/ and return the text.

    Writes both the human-readable ``<id>.txt`` and the machine-readable
    ``<id>.json`` (schema ``repro.bench/result-v1``).  ``metrics`` is a
    :meth:`~repro.metrics.MetricSet.summary` dict — it carries the
    latency percentiles (``latency_p50``/``p90``/``p99``/``max``) — and
    ``params`` records the experiment's knobs (seed, loss rate, query
    count, ...) so a result file is self-describing.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment_id}.txt")
    with open(path, "w") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")
    headers, rows = _parse_table(text)
    payload = {
        "schema": RESULT_SCHEMA,
        "name": experiment_id,
        **_parse_banner(text),
        "params": dict(params or {}),
        "metrics": dict(metrics or {}),
        "table": {"headers": headers, "rows": rows},
    }
    with open(os.path.join(RESULTS_DIR, f"{experiment_id}.json"), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return text


def banner(experiment_id: str, title: str, claim: str) -> str:
    return (
        f"experiment : {experiment_id}\n"
        f"reproduces : {title}\n"
        f"paper claim: {claim}\n"
    )
