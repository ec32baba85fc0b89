"""Tests for run-time plan adaptation (paper Section 2.5)."""

import pytest

from repro.core import build_plan, optimize, route_query
from repro.core.adaptivity import ChannelMonitor
from repro.workloads.paper import (
    paper_active_schemas,
    paper_query_pattern,
    paper_schema,
)


@pytest.fixture
def schema():
    return paper_schema()


@pytest.fixture
def pattern(schema):
    return paper_query_pattern(schema)


@pytest.fixture
def advertisements(schema):
    return paper_active_schemas(schema)


def _replan(pattern, advertisements, failed, schema):
    """Section 2.5 the way the coordinator composes it: the routing
    answer minus the obsolete peers, compiled again."""
    annotated = route_query(pattern, advertisements.values(), schema)
    annotated = annotated.without_peers(failed)
    return annotated, optimize(build_plan(annotated)).result


class TestReplan:
    def test_excludes_failed_peer(self, schema, pattern, advertisements):
        _, plan = _replan(pattern, advertisements, {"P1"}, schema)
        assert plan.is_complete()
        assert "P1" not in plan.peers()

    def test_survives_redundant_failures(self, schema, pattern, advertisements):
        _, plan = _replan(pattern, advertisements, {"P2", "P3"}, schema)
        assert plan.is_complete()  # P1 and P4 still cover both patterns

    def test_unrepairable_when_pattern_uncovered(self, schema, pattern, advertisements):
        annotated, plan = _replan(pattern, advertisements, {"P1", "P3", "P4"}, schema)
        assert not plan.is_complete()
        assert annotated.unannotated_patterns()

    def test_no_failures_is_full_plan(self, schema, pattern, advertisements):
        _, plan = _replan(pattern, advertisements, set(), schema)
        assert plan.is_complete()
        assert plan.peers() == {"P1", "P2", "P3", "P4"}


class TestChannelMonitor:
    def test_healthy_channel_not_flagged(self):
        monitor = ChannelMonitor(minimum_ratio=0.5)
        monitor.expect("c1", 100)
        monitor.observe("c1", 80)
        assert monitor.underperforming() == []

    def test_starved_channel_flagged(self):
        monitor = ChannelMonitor(minimum_ratio=0.5)
        monitor.expect("c1", 100)
        monitor.observe("c1", 10)
        assert monitor.underperforming() == ["c1"]

    def test_ratio_computation(self):
        monitor = ChannelMonitor()
        monitor.expect("c1", 200)
        monitor.observe("c1", 50)
        assert monitor.throughput_ratio("c1") == 0.25

    def test_unknown_channel_ratio_is_one(self):
        assert ChannelMonitor().throughput_ratio("nope") == 1.0

    def test_observations_accumulate(self):
        monitor = ChannelMonitor(minimum_ratio=0.5)
        monitor.expect("c1", 100)
        monitor.observe("c1", 30)
        monitor.observe("c1", 30)
        assert monitor.underperforming() == []

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            ChannelMonitor(minimum_ratio=0.0)
        with pytest.raises(ValueError):
            ChannelMonitor(minimum_ratio=1.5)
