"""Samplers and the one telemetry series: metric sources become
samples, each peer keeps a bounded ring of them, and one rollup reads
the rings.

A :class:`TelemetrySample` is one scrape of one peer — cumulative
counters, the latency histogram's cumulative buckets, point-in-time
gauges, and a liveness verdict — regardless of where it came from:

* :func:`sample_metricset` reads a live
  :class:`~repro.metrics.collectors.MetricSet` in-process (the in-sim
  path, sampled on virtual time);
* :func:`sample_from_exposition` parses a scraped Prometheus text
  exposition (the live path, sampled on wall time).

Both feed a :class:`ClusterSeries`, whose :meth:`~ClusterSeries.rollup`
computes the windowed statistics the SLO monitors evaluate — rates,
``increase()`` deltas and windowed latency percentiles — so sim and
live deployments are judged by one set of rules.

Time is whatever clock the caller samples on: virtual time in-sim,
wall time live.  Nothing here schedules anything — sampling cadence is
the caller's business, which is what keeps the in-sim path free of
perturbation (no extra simulator events, ever).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ...metrics.instruments import FAMILIES

#: Default ring capacity: enough for ~10 minutes at 1 sample/second.
DEFAULT_CAPACITY = 600

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


#: A cumulative-bucket snapshot: ``(upper_bound, cumulative_count)``
#: pairs sorted by bound — exactly the shape of
#: :meth:`~repro.metrics.histogram.Histogram.cumulative_buckets` and of a
#: parsed Prometheus ``_bucket`` family.
BucketSnapshot = Sequence[Tuple[float, int]]


def delta_buckets(
    earlier: BucketSnapshot, later: BucketSnapshot
) -> List[Tuple[float, int]]:
    """Per-bucket growth between two cumulative snapshots.

    Returns non-cumulative ``(upper_bound, count)`` pairs; a later
    snapshot with *smaller* cumulative counts is a reset and the later
    snapshot is returned whole (growth since zero).
    """
    before: Dict[float, int] = {}
    last = 0
    for bound, cumulative in earlier:
        before[bound] = cumulative - last
        last = cumulative
    out: List[Tuple[float, int]] = []
    last = 0
    reset = False
    for bound, cumulative in later:
        in_bucket = cumulative - last
        last = cumulative
        grown = in_bucket - before.get(bound, 0)
        if grown < 0:
            reset = True
            break
        if grown:
            out.append((bound, grown))
    if reset:
        out = []
        last = 0
        for bound, cumulative in later:
            if cumulative - last:
                out.append((bound, cumulative - last))
            last = cumulative
    return out


def percentile_from_buckets(
    buckets: BucketSnapshot, p: float, cumulative: bool = False
) -> Optional[float]:
    """The quantile ``p`` in [0, 100] from bucket counts.

    ``buckets`` are ``(upper_bound, count)`` pairs sorted by bound —
    non-cumulative by default (the :func:`delta_buckets` shape), or
    cumulative with ``cumulative=True``.  Interpolates linearly inside
    the winning bucket between the previous bound and its own, which
    matches :meth:`Histogram.percentile` up to the min/max clamp.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    counts: List[Tuple[float, int]] = []
    last = 0
    for bound, value in buckets:
        count = (value - last) if cumulative else value
        last = value
        if count:
            counts.append((bound, count))
    total = sum(count for _, count in counts)
    if not total:
        return None
    rank = p / 100.0 * total
    seen = 0
    lower = 0.0
    for bound, count in counts:
        if seen + count >= rank:
            fraction = (rank - seen) / count
            return lower + (bound - lower) * min(max(fraction, 0.0), 1.0)
        seen += count
        lower = bound
    return counts[-1][0]


def _increase(samples: Sequence[TelemetrySample], name: str) -> float:
    """Growth of one counter across ``samples`` (oldest first).

    A value smaller than its predecessor means the counter reset
    (process restart); the growth since the reset is counted from zero,
    exactly like Prometheus's ``increase()``.
    """
    values = [sample.counters.get(name, 0.0) for sample in samples]
    return sum(
        (b - a if b >= a else b for a, b in zip(values, values[1:])), 0.0
    )


class SampleRing(deque):
    """One peer's bounded ring of samples, oldest first."""

    def latest(self) -> Optional[TelemetrySample]:
        return self[-1] if self else None


class ClusterSeries:
    """Each peer's bounded ring of samples, and the one windowed rollup.

    The rollup sums counter movement across peers, takes latency
    percentiles over the *merged* bucket deltas (not an average of
    percentiles), and reports availability as the alive fraction of the
    latest scrape round.  The in-sim driver keeps a one-peer series, so
    both runtimes are judged by the same formula.

    Args:
        capacity: Samples retained per peer; older ones fall off the
            front.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 2:
            raise ValueError("a time series needs capacity >= 2")
        self.capacity = capacity
        self.peers: Dict[str, SampleRing] = {}

    def append(self, peer_id: str, sample: TelemetrySample) -> None:
        ring = self.peers.get(peer_id)
        if ring is None:
            ring = self.peers[peer_id] = SampleRing(maxlen=self.capacity)
        ring.append(sample)

    def rollup(
        self, window: float, peers: Optional[Iterable[str]] = None
    ) -> Dict[str, Any]:
        """The windowed statistics the SLO rules read, over every peer
        or only ``peers``.

        A peer's window is its samples no older than ``window`` before
        its newest one.  Counters and latency buckets are read off the
        window's *up* samples only — a ``down`` sample carries neither —
        so the oldest up sample is the baseline of both.  When nothing
        finished since that baseline the percentiles are ``None`` (what
        Prometheus's ``histogram_quantile`` over an empty ``rate()``
        gives), never the all-time distribution; only a window holding a
        single up sample (a scraper's first round), having no baseline,
        reads that sample's whole histogram.  ``query_rate`` and
        ``message_rate`` are per time unit; ``shed_rate``,
        ``partial_rate`` and ``deadline_rate`` are *fractions* of the
        window's offered / finished queries.
        """
        finished = shed = partial = deadline = 0.0
        rate = mrate = 0.0
        inflight = 0.0
        merged: Dict[float, int] = {}
        up = total = 0
        for peer_id in self.peers if peers is None else peers:
            ring = self.peers[peer_id]
            latest = ring[-1]
            horizon = latest.t - window
            alive = [s for s in ring if s.up and s.t >= horizon]
            grown = _increase(alive, "queries_finished")
            finished += grown
            shed += _increase(alive, "queries_shed")
            partial += _increase(alive, "partial_results")
            deadline += _increase(alive, "deadline_expirations")
            if len(alive) >= 2 and alive[-1].t > alive[0].t:
                elapsed = alive[-1].t - alive[0].t
                rate += grown / elapsed
                mrate += _increase(alive, "messages") / elapsed
            if alive:
                baseline = alive[0].latency_buckets if len(alive) > 1 else ()
                for bound, count in delta_buckets(baseline, alive[-1].latency_buckets):
                    merged[bound] = merged.get(bound, 0) + count
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
