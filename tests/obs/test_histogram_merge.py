"""Property tests for Histogram.merge: the distributed-aggregation
algebra behind merged live-run metrics and cluster latency rollups."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.histogram import DEFAULT_GROWTH, Histogram

values = st.lists(
    st.floats(min_value=1e-3, max_value=1e4, allow_nan=False,
              allow_infinity=False),
    min_size=1,
    max_size=40,
)


def hist(samples):
    histogram = Histogram()
    histogram.record_many(samples)
    return histogram


def merged(*histograms):
    out = Histogram()
    for histogram in histograms:
        out.merge(histogram)
    return out


def state(histogram):
    return (
        histogram.cumulative_buckets(),
        histogram.count,
        pytest.approx(histogram.total),
        histogram.min,
        histogram.max,
    )


class TestAlgebra:
    @given(values, values)
    @settings(max_examples=60)
    def test_commutative(self, a, b):
        assert state(merged(hist(a), hist(b))) == state(merged(hist(b), hist(a)))

    @given(values, values, values)
    @settings(max_examples=40)
    def test_associative(self, a, b, c):
        left = merged(merged(hist(a), hist(b)), hist(c))
        right = merged(hist(a), merged(hist(b), hist(c)))
        assert state(left) == state(right)

    @given(values, values)
    @settings(max_examples=60)
    def test_merge_equals_recording_everything_in_one(self, a, b):
        # identical bucket boundaries make the merge exact: every
        # percentile of the merged histogram equals the all-in-one one
        together = hist(a + b)
        via_merge = merged(hist(a), hist(b))
        assert state(via_merge) == state(together)
        for p in (0, 25, 50, 90, 99, 100):
            assert via_merge.percentile(p) == pytest.approx(
                together.percentile(p)
            )

    def test_mismatched_growth_refused(self):
        with pytest.raises(ValueError):
            Histogram(growth=1.05).merge(Histogram(growth=2.0))


class TestQuantileError:
    @given(values, values, st.sampled_from([50.0, 90.0, 99.0]))
    @settings(max_examples=80)
    def test_merged_quantile_within_one_bucket_of_the_data(self, a, b, p):
        # the geometric buckets guarantee ~(growth-1) relative error:
        # the winning bucket contains the true order statistic, and the
        # interpolated answer stays inside that bucket
        histogram = merged(hist(a), hist(b))
        data = sorted(a + b)
        rank = p / 100.0 * len(data)
        true_value = data[max(0, math.ceil(rank) - 1)]
        observed = histogram.percentile(p)
        assert abs(observed - true_value) <= true_value * (DEFAULT_GROWTH - 1) + 1e-9

    @given(values)
    @settings(max_examples=40)
    def test_quantiles_are_monotone_and_clamped(self, a):
        histogram = hist(a)
        quantiles = [histogram.percentile(p) for p in (0, 10, 50, 90, 100)]
        assert quantiles == sorted(quantiles)
        assert histogram.min <= quantiles[0]
        assert quantiles[-1] <= histogram.max
