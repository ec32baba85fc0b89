"""Samplers: turn metric sources into rollup-ready telemetry samples.

A :class:`TelemetrySample` is one scrape of one peer — cumulative
counters, the latency histogram's cumulative buckets, point-in-time
gauges, and a liveness verdict — regardless of where it came from:

* :func:`sample_metricset` reads a live
  :class:`~repro.metrics.collectors.MetricSet` in-process (the in-sim
  path, sampled on virtual time);
* :func:`sample_from_exposition` parses a scraped Prometheus text
  exposition (the live path, sampled on wall time).

Both feed the same :class:`PeerSeries`, whose :meth:`~PeerSeries.rollup`
computes the windowed statistics the SLO monitors evaluate — rates,
``increase()`` deltas and windowed latency percentiles — so sim and
live deployments are judged by one set of rules.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ...metrics.instruments import FAMILIES
from .timeseries import (
    DEFAULT_CAPACITY,
    TimeSeries,
    delta_buckets,
    percentile_from_buckets,
)

#: Declared scalar counters a sample keeps — those the SLO rules and
#: ``repro top`` read; a selection, so a timeline row stays small.
SAMPLED_COUNTERS = (
    "queries_shed",
    "deadline_expirations",
    "partial_results",
    "retries",
    "retransmits",
    "suspicions",
    "dropped_messages",
    "cache_invalidations",
    "recoveries",
    "rejoins",
)

#: Prometheus family behind each counter of a sample (the scrape-side
#: mapping), read off the instrument table — so a selected name the
#: table does not declare is a ``KeyError`` on import.
EXPOSITION_FAMILIES = {
    "messages": FAMILIES["messages_total"],
    "bytes": FAMILIES["bytes_total"],
    "queries_finished": FAMILIES["latency_histogram"] + "_count",
    **{name: FAMILIES[name] for name in SAMPLED_COUNTERS},
}

#: Counters every sample carries (missing sources read as zero).
COUNTER_NAMES = tuple(EXPOSITION_FAMILIES)


class TelemetrySample(NamedTuple):
    """One scrape of one peer."""

    t: float
    counters: Dict[str, float]
    #: cumulative ``(upper_bound, count)`` pairs of the latency histogram
    latency_buckets: Tuple[Tuple[float, int], ...]
    gauges: Dict[str, Any]
    up: bool = True


def sample_metricset(
    metrics, t: float, gauges: Optional[Dict[str, Any]] = None
) -> TelemetrySample:
    """Read one sample straight off a :class:`MetricSet` (in-sim path)."""
    counters = {
        "messages": float(metrics.messages_total),
        "bytes": float(metrics.bytes_total),
        "queries_finished": float(metrics.latency_histogram.count),
        **{name: float(getattr(metrics, name)) for name in SAMPLED_COUNTERS},
    }
    point = dict(gauges or {})
    point.setdefault("inflight_queries", metrics.inflight_queries)
    return TelemetrySample(
        t=t,
        counters=counters,
        latency_buckets=tuple(metrics.latency_histogram.cumulative_buckets()),
        gauges=point,
    )


def sample_from_exposition(
    samples: Sequence[Tuple[str, Dict[str, str], float]],
    t: float,
    gauges: Optional[Dict[str, Any]] = None,
) -> TelemetrySample:
    """Build a sample from a parsed exposition (the live scrape path).

    ``samples`` is the output of
    :func:`~repro.obs.telemetry.http.parse_exposition`: ``(family,
    labels, value)`` triples.  Labelled families are summed over their
    label sets (one process exposes one peer, so the sum is the peer).
    """
    by_family: Dict[str, float] = {}
    buckets: List[Tuple[float, int]] = []
    for name, labels, value in samples:
        if name == "repro_query_latency_bucket":
            le = labels.get("le", "")
            if le not in ("", "+Inf"):
                buckets.append((float(le), int(value)))
            continue
        by_family[name] = by_family.get(name, 0.0) + value
    counters = {
        key: by_family.get(family, 0.0)
        for key, family in EXPOSITION_FAMILIES.items()
    }
    point = dict(gauges or {})
    point.setdefault(
        "inflight_queries", by_family.get("repro_inflight_queries", 0.0)
    )
    buckets.sort()
    return TelemetrySample(
        t=t, counters=counters, latency_buckets=tuple(buckets), gauges=point
    )


class PeerSeries:
    """The windowed history of one peer's samples.

    Appending a sample fans its counters into per-name
    :class:`TimeSeries` rings and keeps a bounded ring of the full
    samples (for bucket deltas and gauge reads).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self.series: Dict[str, TimeSeries] = {
            name: TimeSeries(capacity) for name in COUNTER_NAMES
        }
        self._samples: List[TelemetrySample] = []

    def append(self, sample: TelemetrySample) -> None:
        for name, value in sample.counters.items():
            series = self.series.get(name)
            if series is None:
                series = self.series[name] = TimeSeries(self.capacity)
            series.append(sample.t, value)
        self._samples.append(sample)
        if len(self._samples) > self.capacity:
            del self._samples[: len(self._samples) - self.capacity]

    def __len__(self) -> int:
        return len(self._samples)

    def latest(self) -> Optional[TelemetrySample]:
        return self._samples[-1] if self._samples else None

    def window(self, duration: float) -> List[TelemetrySample]:
        if not self._samples:
            return []
        horizon = self._samples[-1].t - duration
        return [s for s in self._samples if s.t >= horizon]

    # ------------------------------------------------------------------
    # rollups
    # ------------------------------------------------------------------
    def increase(self, name: str, window: float) -> float:
        series = self.series.get(name)
        return series.increase(window) if series is not None else 0.0

    def rate(self, name: str, window: float) -> float:
        series = self.series.get(name)
        return series.rate(window) if series is not None else 0.0

    def latency_percentile(self, p: float, window: float) -> Optional[float]:
        """Windowed latency quantile from bucket deltas between the
        oldest and newest in-window snapshots."""
        samples = self.window(window)
        if not samples:
            return None
        if len(samples) == 1:
            return percentile_from_buckets(
                samples[0].latency_buckets, p, cumulative=True
            )
        grown = delta_buckets(samples[0].latency_buckets, samples[-1].latency_buckets)
        if not grown:
            # nothing finished inside the window: fall back to all-time
            return percentile_from_buckets(
                samples[-1].latency_buckets, p, cumulative=True
            )
        return percentile_from_buckets(grown, p)

    def rollup(self, window: float) -> Dict[str, Any]:
        """The windowed statistics the SLO rules read.

        ``*_rate`` keys are per-time-unit; ``shed_rate`` and
        ``partial_rate`` are *fractions* of the window's offered /
        finished queries.
        """
        finished = self.increase("queries_finished", window)
        shed = self.increase("queries_shed", window)
        partial = self.increase("partial_results", window)
        offered = finished + shed
        latest = self.latest()
        return {
            "window": window,
            "up": bool(latest.up) if latest is not None else False,
            "queries_finished": finished,
            "query_rate": self.rate("queries_finished", window),
            "message_rate": self.rate("messages", window),
            "byte_rate": self.rate("bytes", window),
            "shed_rate": (shed / offered) if offered else 0.0,
            "partial_rate": (partial / finished) if finished else 0.0,
            "deadline_rate": (
                self.increase("deadline_expirations", window) / finished
                if finished
                else 0.0
            ),
            "p50_latency": self.latency_percentile(50, window),
            "p90_latency": self.latency_percentile(90, window),
            "p99_latency": self.latency_percentile(99, window),
            "inflight": (latest.gauges.get("inflight_queries", 0) if latest else 0),
        }


class ClusterSeries:
    """Per-peer series plus cluster-wide rollups.

    The cluster rollup sums counter movement across peers, takes
    latency percentiles over the *merged* bucket deltas (not an average
    of percentiles), and reports availability as the alive fraction of
    the latest scrape round.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self.peers: Dict[str, PeerSeries] = {}

    def append(self, peer_id: str, sample: TelemetrySample) -> None:
        series = self.peers.get(peer_id)
        if series is None:
            series = self.peers[peer_id] = PeerSeries(self.capacity)
        series.append(sample)

    def rollup(self, window: float) -> Dict[str, Any]:
        finished = shed = partial = deadline = 0.0
        rate = mrate = 0.0
        inflight = 0.0
        merged: Dict[float, int] = {}
        up = total = 0
        for series in self.peers.values():
            finished += series.increase("queries_finished", window)
            shed += series.increase("queries_shed", window)
            partial += series.increase("partial_results", window)
            deadline += series.increase("deadline_expirations", window)
            rate += series.rate("queries_finished", window)
            mrate += series.rate("messages", window)
            samples = series.window(window)
            if len(samples) >= 2:
                for bound, count in delta_buckets(
                    samples[0].latency_buckets, samples[-1].latency_buckets
                ):
                    merged[bound] = merged.get(bound, 0) + count
            elif samples:
                last = 0
                for bound, cumulative in samples[-1].latency_buckets:
                    merged[bound] = merged.get(bound, 0) + cumulative - last
                    last = cumulative
            latest = series.latest()
            if latest is not None:
                total += 1
                if latest.up:
                    up += 1
                    inflight += float(latest.gauges.get("inflight_queries", 0) or 0)
        offered = finished + shed
        buckets = sorted(merged.items())
        return {
            "window": window,
            "peers": total,
            "peers_up": up,
            "availability": (up / total) if total else 1.0,
            "queries_finished": finished,
            "query_rate": rate,
            "message_rate": mrate,
            "inflight": inflight,
            "shed_rate": (shed / offered) if offered else 0.0,
            "partial_rate": (partial / finished) if finished else 0.0,
            "deadline_rate": (deadline / finished) if finished else 0.0,
            "p50_latency": percentile_from_buckets(buckets, 50),
            "p90_latency": percentile_from_buckets(buckets, 90),
            "p99_latency": percentile_from_buckets(buckets, 99),
        }
