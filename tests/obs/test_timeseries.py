"""Tests for the one telemetry series (repro.obs.telemetry.sampler):
each peer's bounded ring, the reset-aware windowed rollup and the
bucket math under it."""

import pytest

from repro.obs.telemetry import ClusterSeries, TelemetrySample
from repro.obs.telemetry.sampler import delta_buckets, percentile_from_buckets


def sample(t, finished=0.0, buckets=(), up=True):
    counters = {"queries_finished": finished} if up else {}
    return TelemetrySample(
        t=t, counters=counters, latency_buckets=tuple(buckets), gauges={}, up=up
    )


def series_of(*points, capacity=600):
    """A one-peer series of ``(t, queries_finished)`` samples."""
    series = ClusterSeries(capacity=capacity)
    for t, finished in points:
        series.append("P1", sample(t, finished))
    return series


class TestRing:
    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            ClusterSeries(capacity=1)

    def test_appends_in_order(self):
        ring = series_of((0.0, 0.0), (1.0, 10.0), (2.0, 20.0), capacity=4).peers["P1"]
        assert len(ring) == 3
        assert [(s.t, s.counters["queries_finished"]) for s in ring] == [
            (0.0, 0.0), (1.0, 10.0), (2.0, 20.0),
        ]
        assert ring.latest().t == 2.0

    def test_overwrites_oldest_at_capacity(self):
        series = series_of(*((float(t), float(t)) for t in range(5)), capacity=3)
        assert [s.t for s in series.peers["P1"]] == [2.0, 3.0, 4.0]
        # the rollup reads only what the ring kept
        assert series.rollup(100.0)["queries_finished"] == 2.0

    def test_window_filters_on_time(self):
        series = series_of((0.0, 0.0), (5.0, 5.0), (9.0, 9.0), (10.0, 10.0))
        assert series.rollup(5.0)["queries_finished"] == 5.0  # t = 5, 9, 10
        assert series.rollup(0.5)["queries_finished"] == 0.0  # t = 10 alone


class TestIncreaseAndRate:
    def test_monotone_growth(self):
        rollup = series_of((0.0, 10.0), (1.0, 15.0), (2.0, 25.0)).rollup(10.0)
        assert rollup["queries_finished"] == pytest.approx(15.0)
        assert rollup["query_rate"] == pytest.approx(7.5)

    def test_single_sample_is_zero(self):
        rollup = series_of((0.0, 42.0)).rollup(10.0)
        assert rollup["queries_finished"] == 0.0
        assert rollup["query_rate"] == 0.0

    def test_counter_reset_counts_growth_from_zero(self):
        # a restarted peer's counter starts over: 100 -> 3 means
        # "+3 since the restart", not "-97"
        rollup = series_of((0.0, 100.0), (1.0, 3.0), (2.0, 8.0)).rollup(10.0)
        assert rollup["queries_finished"] == pytest.approx(8.0)

    def test_zero_elapsed_rate_is_zero(self):
        rollup = series_of((1.0, 5.0), (1.0, 9.0)).rollup(10.0)
        assert rollup["queries_finished"] == 4.0
        assert rollup["query_rate"] == 0.0


class TestWindowedLatency:
    def test_quiet_window_has_no_percentiles(self):
        # 100 queries early on, then nothing finishes for the last 60
        # units: the window's percentiles are unknown, not all-time
        busy = [(10.0, 100)]
        series = ClusterSeries()
        series.append("P1", sample(0.0))
        for t in (10.0, 80.0, 100.0):
            series.append("P1", sample(t, 100.0, busy))
        quiet = series.rollup(60.0)
        assert quiet["queries_finished"] == 0.0
        assert quiet["p50_latency"] is None and quiet["p99_latency"] is None
        assert series.rollup(100.0)["p99_latency"] == pytest.approx(9.9)
        # one sample has no baseline: its whole histogram (a first round)
        assert series.rollup(5.0)["p99_latency"] == pytest.approx(9.9)

    def test_down_sample_opening_the_window_is_no_baseline(self):
        # 100 slow queries of history, a failed scrape, then two fast
        # queries: the window's latency is the two fast ones
        history = [(10.0, 0), (1000.0, 100)]
        series = ClusterSeries()
        series.append("P1", sample(30.0, 100.0, history))
        series.append("P1", sample(95.0, up=False))
        series.append("P1", sample(120.0, 100.0, history))
        series.append("P1", sample(150.0, 102.0, [(10.0, 2), (1000.0, 102)]))
        rollup = series.rollup(60.0)
        assert rollup["queries_finished"] == 2.0
        assert rollup["p50_latency"] == pytest.approx(5.0)
        assert rollup["p99_latency"] == pytest.approx(9.9)


class TestDeltaBuckets:
    def test_growth_between_snapshots(self):
        earlier = [(1.0, 2), (2.0, 5)]
        later = [(1.0, 3), (2.0, 7), (4.0, 8)]
        assert delta_buckets(earlier, later) == [(1.0, 1), (2.0, 1), (4.0, 1)]

    def test_no_growth_is_empty(self):
        snapshot = [(1.0, 2), (2.0, 5)]
        assert delta_buckets(snapshot, snapshot) == []

    def test_reset_returns_later_snapshot_whole(self):
        earlier = [(1.0, 10), (2.0, 20)]
        later = [(1.0, 1), (2.0, 2)]
        assert delta_buckets(earlier, later) == [(1.0, 1), (2.0, 1)]

    def test_fresh_peer_with_empty_earlier(self):
        assert delta_buckets([], [(1.0, 2)]) == [(1.0, 2)]


class TestPercentileFromBuckets:
    def test_empty_is_none(self):
        assert percentile_from_buckets([], 50) is None
        assert percentile_from_buckets([(1.0, 0)], 50, cumulative=True) is None

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile_from_buckets([(1.0, 1)], 101)

    def test_single_bucket_interpolates_from_zero(self):
        assert percentile_from_buckets([(10.0, 2)], 50) == pytest.approx(5.0)
        assert percentile_from_buckets([(10.0, 2)], 100) == pytest.approx(10.0)

    def test_cumulative_and_delta_forms_agree(self):
        delta = [(1.0, 2), (2.0, 3), (4.0, 5)]
        cumulative = [(1.0, 2), (2.0, 5), (4.0, 10)]
        for p in (0, 10, 50, 90, 99, 100):
            assert percentile_from_buckets(delta, p) == pytest.approx(
                percentile_from_buckets(cumulative, p, cumulative=True)
            )

    def test_high_quantile_lands_in_top_bucket(self):
        buckets = [(1.0, 98), (100.0, 2)]
        p99 = percentile_from_buckets(buckets, 99)
        assert 1.0 <= p99 <= 100.0
        assert percentile_from_buckets(buckets, 50) <= 1.0
