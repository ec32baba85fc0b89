"""``benchmarks/pairs.py`` folds canned benchmark runs into medians,
interquartile ranges, pairs won and verdicts — no benchmark runs here
(CI runs one short real pair)."""

import pytest

from benchmarks import pairs

SPEC = {
    "end_to_end": [
        {"name": "cpu_ms_per_query", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "throughput_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "wire_bytes_per_query", "unit": "bytes", "better": "lower", "bound": 0.02},
    ]
}


def run(cpu, qps=100.0, wire=1000.0, correct=True, failed=0):
    """One run's last line, as ``benchmarks/perf/run.py`` prints it."""
    values = {"cpu_ms_per_query": cpu, "throughput_qps": qps, "wire_bytes_per_query": wire}
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": ""} for name, value in values.items()},
    }


def folded(parent, change, **kwargs):
    runs = [(run(p, **kwargs), run(c, **kwargs)) for p, c in zip(parent, change)]
    return pairs.fold({"sim-join": runs}, SPEC)["sim-join"]


def test_medians_iqrs_and_pairs_won():
    entry = folded([10.0, 10.4, 9.8, 10.2, 10.0], [8.0, 8.2, 7.8, 8.4, 8.0])
    cpu = entry["metrics"]["cpu_ms_per_query"]
    assert cpu["parent"]["median"] == 10.0 and cpu["change"]["median"] == 8.0
    assert cpu["parent"]["iqr"] == pytest.approx(0.2)
    assert cpu["change"]["iqr"] == pytest.approx(0.2)
    assert cpu["parent"]["runs"] == [10.0, 10.4, 9.8, 10.2, 10.0]
    assert (cpu["pairs_won"], cpu["verdict"]) == (5, "improved")
    assert (cpu["unit"], cpu["better"], cpu["bound"]) == ("ms", "lower", 0.25)
    assert entry["pairs"] == 5 and entry["correct"] is True
    # an unchanged count: no pair won, no verdict but ok
    wire = entry["metrics"]["wire_bytes_per_query"]
    assert (wire["pairs_won"], wire["verdict"], wire["parent"]["iqr"]) == (0, "ok", 0)


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        ([10.0] * 5, [13.0] * 5, "regressed"),  # 30 % worse, bound 25 %
        ([10.0] * 5, [12.0] * 5, "ok"),  # 20 % worse: inside the bound
        ([10.0] * 5, [9.0, 9.0, 9.0, 9.0, 11.0], "ok"),  # won 4 of 5 only
        ([5.0, 10.0, 15.0, 10.0, 20.0], [11.0, 9.0, 14.0, 12.0, 10.0], "unresolved"),
        ([5.0, 10.0, 15.0, 10.0, 20.0], [4.0, 4.0, 4.0, 4.0, 4.5], "improved"),
    ],
)
def test_verdict_against_the_bound(parent, change, verdict):
    assert folded(parent, change)["metrics"]["cpu_ms_per_query"]["verdict"] == verdict


def test_higher_is_better_metrics_win_upwards():
    assert pairs.verdict([100.0] * 5, [110.0] * 5, "higher", 0.25) == ("improved", 5)
    assert pairs.verdict([100.0] * 5, [70.0] * 5, "higher", 0.25) == ("regressed", 0)


def test_a_wrong_answer_or_a_failed_operation_is_kept():
    runs = [(run(10.0), run(9.0, correct=False, failed=2))]
    entry = pairs.fold({"live-tcp": runs}, SPEC)["live-tcp"]
    assert entry["correct"] is False
    assert entry["failed"] == {"parent": [0], "change": [2]}


def test_every_benchmark_metric_is_folded():
    spec = pairs.load_spec()
    names = [m["name"] for m in spec["end_to_end"]]
    canned = {"correct": True, "failed": 0,
              "metrics": {name: {"value": 1.0, "unit": ""} for name in names}}
    entry = pairs.fold({"sim-fanout": [(canned, canned)]}, spec)["sim-fanout"]
    assert list(entry["metrics"]) == names
    assert all(row["verdict"] == "ok" for row in entry["metrics"].values())


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    order = []

    def fake(tree, workload, seed, seconds):
        order.append("change" if tree == pairs.ROOT else "parent")
        return run(1.0)

    monkeypatch.setattr(pairs, "run_once", fake)
    monkeypatch.setattr(pairs, "compile_tree", lambda tree: None)
    measured = pairs.measure(pairs.ROOT.parent, ["sim-join"], 3, 3, 1.0)
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    assert len(measured["sim-join"]) == 3


def test_both_trees_are_compiled_before_any_run(monkeypatch):
    calls = []

    def fake_subprocess_run(command, cwd, env, **kwargs):
        assert command[1:] == ["-m", "compileall", "-q", "src", "benchmarks"]
        assert env == pairs.environment() and "PYTHONPATH" not in env
        calls.append(("compile", cwd))

    def fake_run_once(tree, workload, seed, seconds):
        calls.append(("run", tree))
        return run(1.0)

    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.setattr(pairs.subprocess, "run", fake_subprocess_run)
    monkeypatch.setattr(pairs, "run_once", fake_run_once)
    parent = pairs.ROOT.parent
    pairs.measure(parent, ["sim-join", "sim-fanout"], 2, 3, 1.0)
    assert calls[:2] == [("compile", parent), ("compile", pairs.ROOT)]
    assert all(kind == "run" for kind, _ in calls[2:]) and len(calls) == 2 + 8
