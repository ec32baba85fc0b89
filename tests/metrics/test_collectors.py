"""Tests for metric collection."""

import pytest

from repro.metrics import COUNTERS, MetricSet
from repro.obs import render_prometheus


class TestMetricSet:
    def test_record_message(self):
        metrics = MetricSet()
        metrics.record_message("QuerySubmit", "A", "B", 100)
        assert metrics.messages_total == 1
        assert metrics.bytes_total == 100
        assert metrics.messages_by_kind["QuerySubmit"] == 1
        assert metrics.bytes_by_kind["QuerySubmit"] == 100
        assert metrics.messages_received["B"] == 1

    def test_query_load_tracking(self):
        metrics = MetricSet()
        metrics.record_query_processed("A", relevant=True)
        metrics.record_query_processed("A", relevant=False)
        assert metrics.queries_processed["A"] == 2
        assert metrics.irrelevant_queries["A"] == 1

    def test_latency(self):
        metrics = MetricSet()
        metrics.query_started("q1", 10.0)
        metrics.query_finished("q1", 14.0)
        assert metrics.latency_histogram.count == 1
        assert metrics.mean_latency() == 4.0

    def test_finish_without_start_ignored(self):
        metrics = MetricSet()
        metrics.query_finished("ghost", 5.0)
        assert metrics.latency_histogram.count == 0
        assert metrics.inflight_queries == 0

    def test_mean_latency_empty(self):
        assert MetricSet().mean_latency() is None

    def test_snapshot_delta(self):
        """Two snapshots bracket a window: the earlier one is a copy
        (per-kind counters included), not a view of the live set."""
        metrics = MetricSet()
        metrics.record_message("X", "A", "B", 10)
        before = metrics.snapshot()
        metrics.record_message("X", "A", "B", 20)
        metrics.record_message("Y", "A", "B", 30)
        after = metrics.snapshot()
        assert before[:2] == (1, 10)
        assert (after.messages - before.messages, after.bytes - before.bytes) == (2, 50)
        assert dict(after.messages_by_kind - before.messages_by_kind) == {"X": 1, "Y": 1}
        assert dict(after.bytes_by_kind - before.bytes_by_kind) == {"X": 20, "Y": 30}

    def test_cache_counters(self):
        metrics = MetricSet()
        metrics.count("cache_hits")
        metrics.count("cache_misses")
        metrics.count("cache_invalidations", 3)
        metrics.count("coalesced_queries")
        snapshot = metrics.snapshot()
        assert snapshot.cache_hits == 1
        assert snapshot.cache_misses == 1
        assert snapshot.cache_invalidations == 3
        assert snapshot.coalesced_queries == 1


class TestInstrumentTable:
    """Every declared counter reaches every view — nothing is listed
    twice, so nothing can be forgotten by one of them."""

    def test_every_counter_reaches_every_view(self):
        assert {"topk_cancels", "continuous_pushes"} <= set(COUNTERS)
        assert {"subplans_shipped", "scans_empty"} <= set(COUNTERS)
        assert {"messages", "bytes", "queries_processed", *COUNTERS} <= set(
            MetricSet().summary()
        )
        for name in COUNTERS:
            metrics = MetricSet()
            zero, zero_summary = metrics.snapshot(), metrics.summary()
            metrics.count(name)
            metrics.count(name, 2)
            assert getattr(metrics, name) == 3
            moved = metrics.snapshot()
            assert [
                field for field in moved._fields
                if getattr(moved, field) != getattr(zero, field)
            ] == [name]
            assert getattr(moved, name) == 3
            summary = metrics.summary()
            assert {
                key for key in summary if summary[key] != zero_summary[key]
            } == {name}
            assert summary[name] == 3
            exposition = render_prometheus(metrics).splitlines()
            family = f"repro_{name}_total"
            assert exposition.count(f"# TYPE {family} counter") == 1
            assert f"{family} 3" in exposition

    def test_undeclared_counter_raises(self):
        metrics = MetricSet()
        with pytest.raises(KeyError):
            metrics.count("no_such")
        with pytest.raises(KeyError):
            metrics.count("messages_total")  # an attribute, not a table counter
        assert not hasattr(metrics, "no_such")

    def test_snapshot_fields_follow_the_table(self):
        assert MetricSet().snapshot()._fields == (
            "messages", "bytes", *COUNTERS, "messages_by_kind", "bytes_by_kind",
        )

    def test_record_batch_moves_the_declared_counter(self):
        metrics = MetricSet()
        metrics.record_batch(4)
        assert metrics.summary()["batches_sent"] == 1
        assert metrics.summary()["mean_bindings_per_batch"] == 4.0


class TestPerAttemptLatency:
    def test_resubmit_records_every_attempt(self):
        """A client resubmit of the same query id must not clobber the
        outstanding attempt: both latencies count."""
        metrics = MetricSet()
        tapped = []
        metrics.on_query_latency = lambda query_id, latency: tapped.append(
            (query_id, latency)
        )
        metrics.query_started("q1", 0.0)
        metrics.query_started("q1", 10.0)  # idempotent resubmit
        assert metrics.inflight_query_ids() == ["q1"]
        metrics.query_finished("q1", 4.0)  # closes the oldest attempt
        metrics.query_finished("q1", 16.0)
        assert tapped == [("q1", 4.0), ("q1", 6.0)]
        assert metrics.latency_histogram.count == 2
        assert metrics.latency_histogram.total == 10.0
        assert metrics.mean_latency() == 5.0
        assert metrics.inflight_query_ids() == []
        assert metrics.inflight_queries == 0

    def test_latency_feeds_histogram_percentiles(self):
        metrics = MetricSet()
        for i in range(100):
            metrics.query_started(f"q{i}", 0.0)
            metrics.query_finished(f"q{i}", float(i + 1))
        percentiles = metrics.latency_percentiles()
        assert percentiles["max"] == 100.0
        assert abs(percentiles["p50"] - 50.0) / 50.0 < 0.06

    def test_percentiles_zero_when_empty(self):
        assert MetricSet().latency_percentiles() == {
            "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0,
        }

    def test_summary_carries_percentile_keys(self):
        summary = MetricSet().summary()
        assert {"latency_p50", "latency_p90", "latency_p99", "latency_max"} <= set(
            summary
        )


class TestStageLatency:
    def test_observations_fold_lazily(self):
        """observe_stage pays one append; histograms materialise on
        the first stage_latency read."""
        metrics = MetricSet()
        metrics.observe_stage("routing", 2.0)
        metrics.observe_stage("routing", 4.0)
        metrics.observe_stage("execute", 1.0)
        assert len(metrics._stage_pending) == 3
        stages = metrics.stage_latency
        assert metrics._stage_pending == []
        assert set(stages) == {"routing", "execute"}
        assert stages["routing"].count == 2
        assert stages["routing"].total == 6.0
        assert stages["execute"].count == 1

    def test_reads_are_idempotent(self):
        metrics = MetricSet()
        metrics.observe_stage("routing", 2.0)
        assert metrics.stage_latency["routing"].count == 1
        assert metrics.stage_latency["routing"].count == 1
        metrics.observe_stage("routing", 3.0)
        assert metrics.stage_latency["routing"].count == 2
