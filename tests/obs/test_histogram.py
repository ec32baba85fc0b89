"""Tests for the bucketed histogram (repro.metrics.histogram)."""

import pytest

from repro.metrics.histogram import FLUSH_THRESHOLD, Histogram


class TestRecording:
    def test_empty(self):
        histogram = Histogram()
        assert histogram.count == 0
        assert histogram.mean is None
        assert histogram.min is None
        assert histogram.max is None
        assert histogram.percentile(50) is None
        assert len(histogram) == 0

    def test_count_total_min_max(self):
        histogram = Histogram()
        histogram.record_many([4.0, 1.0, 3.0, 2.0])
        assert histogram.count == 4
        assert histogram.total == pytest.approx(10.0)
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.mean == pytest.approx(2.5)

    def test_underflow_bucket(self):
        histogram = Histogram()
        histogram.record(0.0)
        histogram.record(-1.0)
        assert histogram.count == 2
        assert histogram.percentile(50) is not None

    def test_pending_flushes_at_threshold_without_read(self):
        histogram = Histogram()
        for _ in range(FLUSH_THRESHOLD):
            histogram.record(1.0)
        # memory bound: the pending list folded without any read
        assert not histogram._pending
        assert histogram._count == FLUSH_THRESHOLD

    def test_invalid_growth(self):
        with pytest.raises(ValueError):
            Histogram(growth=1.0)


class TestPercentiles:
    def test_single_value(self):
        histogram = Histogram()
        histogram.record(7.0)
        for p in (0, 50, 99, 100):
            assert histogram.percentile(p) == pytest.approx(7.0, rel=0.06)

    def test_uniform_known_distribution(self):
        """1..1000: every percentile must land within bucket resolution
        (5% relative error) of the exact answer."""
        histogram = Histogram()
        histogram.record_many(float(v) for v in range(1, 1001))
        for p, exact in ((50, 500.0), (90, 900.0), (99, 990.0)):
            assert histogram.percentile(p) == pytest.approx(exact, rel=0.06)
        assert histogram.percentile(100) == 1000.0

    def test_skewed_distribution(self):
        """99 fast samples and one huge outlier: p50 stays at the fast
        mode, max captures the outlier."""
        histogram = Histogram()
        histogram.record_many([1.0] * 99)
        histogram.record(1000.0)
        assert histogram.percentile(50) == pytest.approx(1.0, rel=0.06)
        assert histogram.max == 1000.0
        assert histogram.percentile(99) == pytest.approx(1.0, rel=0.06)

    def test_clamped_to_observed_bounds(self):
        histogram = Histogram()
        histogram.record_many([10.0, 20.0])
        assert histogram.percentile(0) >= 10.0 - 1e-9
        assert histogram.percentile(100) <= 20.0 + 1e-9

    def test_out_of_range(self):
        histogram = Histogram()
        histogram.record(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(101)


class TestMergeAndExport:
    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.record_many([1.0, 2.0])
        b.record_many([3.0, 4.0])
        a.merge(b)
        assert a.count == 4
        assert a.min == 1.0
        assert a.max == 4.0
        assert a.total == pytest.approx(10.0)

    def test_merge_growth_mismatch(self):
        with pytest.raises(ValueError):
            Histogram(growth=1.05).merge(Histogram(growth=1.5))

    def test_cumulative_buckets_monotonic(self):
        histogram = Histogram()
        histogram.record_many([1.0, 5.0, 25.0, 125.0])
        buckets = histogram.cumulative_buckets()
        uppers = [upper for upper, _ in buckets]
        counts = [count for _, count in buckets]
        assert uppers == sorted(uppers)
        assert counts == sorted(counts)
        assert counts[-1] == 4

    def test_summary_keys(self):
        histogram = Histogram()
        histogram.record_many([1.0, 2.0, 3.0])
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "p50", "p90", "p99", "min", "max"}
        assert Histogram().summary() == {"count": 0}
