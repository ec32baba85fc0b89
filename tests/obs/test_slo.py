"""Tests for the declarative SLO monitors (repro.obs.telemetry.slo)."""

from repro.obs.telemetry import SLOMonitor, SLORule, default_slo_rules, render_alert
from repro.obs.telemetry.slo import ALERT_SCHEMA


def rule(**overrides):
    base = dict(
        name="shed-rate", metric="shed_rate", op=">", threshold=0.25,
        for_samples=2, description="too many sheds",
    )
    base.update(overrides)
    return SLORule(**base)


class TestRule:
    def test_violated_ops(self):
        assert rule().violated({"shed_rate": 0.5}) is True
        assert rule().violated({"shed_rate": 0.1}) is False
        assert rule(op="<", threshold=0.75).violated({"shed_rate": 0.5}) is True

    def test_missing_metric_is_none(self):
        assert rule().violated({}) is None
        assert rule(metric="p99_latency").violated({"p99_latency": None}) is None


class TestMonitor:
    def test_debounce_needs_consecutive_violations(self):
        monitor = SLOMonitor((rule(for_samples=2),), scope="cluster")
        assert monitor.evaluate(1.0, {"shed_rate": 0.5}) == []
        events = monitor.evaluate(2.0, {"shed_rate": 0.5})
        assert [e["state"] for e in events] == ["firing"]
        assert events[0]["schema"] == ALERT_SCHEMA
        assert events[0]["rule"] == "shed-rate"
        assert events[0]["scope"] == "cluster"
        assert events[0]["value"] == 0.5

    def test_interrupted_streak_resets_the_debounce(self):
        monitor = SLOMonitor((rule(for_samples=2),))
        monitor.evaluate(1.0, {"shed_rate": 0.5})
        monitor.evaluate(2.0, {"shed_rate": 0.0})
        assert monitor.evaluate(3.0, {"shed_rate": 0.5}) == []
        assert monitor.active() == []

    def test_transitions_only(self):
        monitor = SLOMonitor((rule(for_samples=1),))
        assert len(monitor.evaluate(1.0, {"shed_rate": 0.5})) == 1
        # still violating: no repeat event while firing
        assert monitor.evaluate(2.0, {"shed_rate": 0.6}) == []
        resolved = monitor.evaluate(3.0, {"shed_rate": 0.0})
        assert [e["state"] for e in resolved] == ["resolved"]
        assert resolved[0]["fired_at"] == 1.0
        assert monitor.active() == []
        assert [e["state"] for e in monitor.history] == ["firing", "resolved"]

    def test_unavailable_metric_freezes_state(self):
        monitor = SLOMonitor((rule(for_samples=1),))
        monitor.evaluate(1.0, {"shed_rate": 0.5})
        # an empty window neither refires nor resolves
        assert monitor.evaluate(2.0, {}) == []
        assert len(monitor.active()) == 1

    def test_active_sorted_by_fire_time(self):
        rules = (rule(for_samples=1), rule(name="p99", metric="p99_latency",
                                           op=">", threshold=10.0, for_samples=1))
        monitor = SLOMonitor(rules)
        monitor.evaluate(1.0, {"shed_rate": 0.5})
        monitor.evaluate(2.0, {"shed_rate": 0.5, "p99_latency": 99.0})
        assert [e["rule"] for e in monitor.active()] == ["shed-rate", "p99"]


class TestDefaults:
    def test_stock_rules_cover_the_objectives(self):
        rules = default_slo_rules()
        assert {r.name for r in rules} == {
            "p99-latency", "shed-rate", "availability", "partial-rate",
        }
        availability = next(r for r in rules if r.name == "availability")
        assert availability.for_samples == 1  # a down peer is never noise

    def test_bounds_are_tunable(self):
        rules = default_slo_rules(p99_bound=42.0, shed_bound=0.1)
        p99 = next(r for r in rules if r.name == "p99-latency")
        assert p99.threshold == 42.0
        shed = next(r for r in rules if r.name == "shed-rate")
        assert shed.threshold == 0.1

    def test_render_alert_is_one_line(self):
        # the window an event names is the monitor's, the one its
        # rollups were taken over
        monitor = SLOMonitor((rule(for_samples=1),), window=120.0)
        (event,) = monitor.evaluate(7.0, {"shed_rate": 0.5})
        line = render_alert(event)
        assert "FIRING" in line and "shed-rate" in line and "\n" not in line
        assert event["window"] == 120.0 and line.endswith("over 120")
