"""Self-tests of the benchmark: ``python -m pytest benchmarks/perf -q``.

They check the harness, not the program: the smoke pass, the trace
degrading on a span target that does not resolve, the oracle counting a
corrupted reference row as a failure, and the ``--compare`` verdicts.
(That the code emits exactly the metrics ``BENCHMARK.json`` names is
part of the smoke pass.)
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))  # run without PYTHONPATH=src too

from repro.rql.bindings import BindingTable  # noqa: E402

from benchmarks.perf import cli, compare  # noqa: E402
from benchmarks.perf.measure import run, run_epoch  # noqa: E402
from benchmarks.perf.oracle import Oracle  # noqa: E402
from benchmarks.perf.spec import PER_LAYER  # noqa: E402
from benchmarks.perf.trace import TARGETS, SpanRecorder, Target  # noqa: E402
from benchmarks.perf.workloads import SMOKE_SCALE, WORKLOADS  # noqa: E402


def test_smoke_passes():
    assert cli.smoke() == 0


def test_unresolved_span_target_degrades_to_null():
    bogus = Target("planning.build", "repro.core.planning:no_such_function")
    recorder = SpanRecorder(TARGETS + (bogus,))
    report = run(
        WORKLOADS["sim-join"], seed=2, seconds=0.0, traced=True,
        scale=SMOKE_SCALE, recorder=recorder,
    )
    layers = report["per_layer"]
    assert report["failed"] == 0
    assert report["unresolved_targets"] == [bogus.path]
    assert layers["trace.unresolved_targets"] == 1
    assert layers["planning.build_us_per_query"] is None
    assert layers["planning.scans_per_plan"] is None
    assert layers["execution.scan_us_per_query"] > 0
    # the contract's result line still carries a number for every metric
    line = json.loads(cli.driver_line(report))
    assert line["correct"] and set(line["metrics"]) == set(PER_LAYER)
    assert line["metrics"]["planning.build_us_per_query"]["value"] == 0.0


@pytest.mark.parametrize("name, revision", [
    ("sim-join", 0),
    ("sim-updates", 1),  # an answer between two checkpoints of the scratch twin
])
def test_corrupted_oracle_row_is_counted_as_failure(name, revision):
    workload = WORKLOADS[name]
    inputs = workload.generate(seed=3, scale=SMOKE_SCALE)
    assert revision not in inputs.checkpoints
    oracle = Oracle(workload, inputs)
    clean = run_epoch(workload, inputs, oracle, None, setup_repeats=1)
    assert clean.failures == []
    text, reference = next(
        (op.text, oracle.expected(op.text, revision))
        for op in inputs.ops
        if op.kind == "query" and op.revision == revision
        and len(oracle.expected(op.text, revision)) >= 2
    )
    rows = [tuple(row) for row in reference]
    corrupted = BindingTable(reference.columns, rows[1:] + [rows[1]])
    assert len(corrupted) == len(reference) and corrupted != reference
    oracle._expected[(revision, text)] = corrupted
    epoch = run_epoch(workload, inputs, oracle, None, setup_repeats=1)
    hit = sum(1 for op in inputs.ops if (op.revision, op.text) == (revision, text))
    assert hit >= 1 and len(epoch.failures) == hit
    assert all("reference has" in line for line in epoch.failures)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [x + 4 for x in steady], "lower", 0.10) == "ok"
    assert compare.verdict(steady, [x + 20 for x in steady], "lower", 0.10) == "regressed"
    assert compare.verdict(steady, [x - 20 for x in steady], "higher", 0.10) == "regressed"
    noisy = [100.0, 130.0, 80.0, 120.0, 85.0]
    assert compare.verdict(noisy, steady, "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [x - 30 for x in steady], "lower", 0.10) == "ok"
    # bound 0: the worst run of each side decides, not the median
    clean = [0.0] * 5
    assert compare.verdict(clean, clean, "lower", 0.0) == "ok"
    assert compare.verdict(clean, [0.0, 0.0, 0.01, 0.0, 0.0], "lower", 0.0) == "regressed"


def test_compare_reports_one_row_per_workload_and_metric():
    def result(throughput, failed_fraction):
        return {"workloads": {"sim-join": {"end_to_end": {
            "throughput_qps": {"values": throughput},
            "failed_fraction": {"values": failed_fraction},
        }}}}

    a = result([10.0, 10.1, 9.9, 10.0, 10.0], [0.0] * 5)
    rows = compare.compare(a, result([5.0, 5.1, 4.9, 5.0, 5.0], [0.0] * 5))
    assert {(r["metric"], r["status"]) for r in rows} == {
        ("throughput_qps", "regressed"), ("failed_fraction", "ok"),
    }
    # one of B's five runs had a failed operation: its median is still 0
    rows = compare.compare(a, result([10.0, 10.1, 9.9, 10.0, 10.0], [0.0, 0.02, 0.0, 0.0, 0.0]))
    assert {(r["metric"], r["status"]) for r in rows} == {
        ("throughput_qps", "ok"), ("failed_fraction", "regressed"),
    }
    with pytest.raises(ValueError):
        compare.compare(a, result([10.0, 10.1, 9.9], [0.0] * 3))
