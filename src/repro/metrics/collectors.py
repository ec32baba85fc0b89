"""Metric collection shared by the network simulator and benchmarks."""

from __future__ import annotations

from collections import Counter, namedtuple
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.histogram import Histogram
from .instruments import COUNTERS

#: A point-in-time reading of the cumulative counters: ``messages`` and
#: ``bytes`` (``[:2]`` is the historical pair), one field per declared
#: scalar counter in table order, and copies of the per-kind counters.
MetricSnapshot = namedtuple(
    "MetricSnapshot",
    ["messages", "bytes", *COUNTERS, "messages_by_kind", "bytes_by_kind"],
)


class MetricSet:
    """Counters the experiments report: messages, bytes, per-peer load.

    All counters are cumulative; two :meth:`snapshot` readings bracket
    one query.  Which scalar counters exist is decided by the table in
    :mod:`repro.metrics.instruments`: each is an attribute of this
    object, zeroed here and moved through :meth:`count`.  Latency is
    kept as **per-attempt observations** feeding a bucketed
    :class:`~repro.obs.histogram.Histogram` (p50/p90/p99/max), and
    every finished tracing span folds its duration into the per-stage
    histograms via :meth:`observe_stage`.
    """

    def __init__(self):
        self.messages_total = 0
        self.bytes_total = 0
        self.messages_by_kind: Counter = Counter()
        self.bytes_by_kind: Counter = Counter()
        self.messages_received: Counter = Counter()  # per peer
        self.queries_processed: Counter = Counter()  # per peer
        self.irrelevant_queries: Counter = Counter()  # per peer
        for name in COUNTERS:
            setattr(self, name, 0)
        self._query_started: Dict[str, List[float]] = {}
        #: all latency observations, bucketed (repro.obs)
        self.latency_histogram = Histogram()
        # per-stage span durations; observations queue in _stage_pending
        # (every span finish pays one list append) and fold into the
        # histograms on first read of :attr:`stage_latency`
        self._stage_latency: Dict[str, Histogram] = {}
        self._stage_pending: List[Tuple[str, float]] = []
        #: scheduled delivery delay per message kind (repro.obs)
        self.message_delay_by_kind: Dict[str, Histogram] = {}
        #: observed delivery delay and payload size per directed link —
        #: the raw material :meth:`link_observations` turns into the
        #: per-byte link costs cost-based planning folds into
        #: :class:`~repro.core.cost.Statistics`
        self.link_delay: Dict[Tuple[str, str], Histogram] = {}
        self.link_bytes: Dict[Tuple[str, str], Histogram] = {}
        #: how full each shipped binding batch was (repro.channels)
        self.bindings_per_batch = Histogram()
        # workload engine (repro.workload_engine): how many coordinations
        # are in flight at once (a gauge with a high-watermark, not a
        # counter) and how deep admission queues were at enqueue time
        self.inflight_queries = 0
        self.max_inflight_queries = 0
        self.queue_depth_histogram = Histogram()
        # telemetry (repro.obs.telemetry): per-query latency tap — the
        # slow-query log installs itself here; None costs one comparison
        self.on_query_latency: Optional[Callable[[str, float], None]] = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the scalar counter ``name`` — the one writer of
        every counter the instrument table declares.  An undeclared
        name raises: a counter no view would report must not exist."""
        if name not in COUNTERS:
            raise KeyError(f"undeclared counter {name!r}")
        vars(self)[name] += n

    def record_message(
        self, kind: str, src: str, dst: str, size: int, delay: Optional[float] = None
    ) -> None:
        self.messages_total += 1
        self.bytes_total += size
        self.messages_by_kind[kind] += 1
        self.bytes_by_kind[kind] += size
        self.messages_received[dst] += 1
        if delay is not None:
            histogram = self.message_delay_by_kind.get(kind)
            if histogram is None:
                histogram = self.message_delay_by_kind[kind] = Histogram()
            histogram.record(delay)
            if src != dst:
                link = (src, dst)
                delays = self.link_delay.get(link)
                if delays is None:
                    delays = self.link_delay[link] = Histogram()
                    self.link_bytes[link] = Histogram()
                delays.record(delay)
                self.link_bytes[link].record(size)

    def link_observations(self) -> Dict[Tuple[str, str], Tuple[float, float]]:
        """Per directed link, the observed ``(mean delay, mean payload
        bytes)`` — what :meth:`Statistics.fold_link_observations`
        consumes to estimate per-byte communication cost."""
        observations: Dict[Tuple[str, str], Tuple[float, float]] = {}
        for link, delays in self.link_delay.items():
            mean_delay = delays.mean
            mean_bytes = self.link_bytes[link].mean
            if mean_delay is not None and mean_bytes is not None:
                observations[link] = (mean_delay, mean_bytes)
        return observations

    def record_query_processed(self, peer_id: str, relevant: bool = True) -> None:
        self.queries_processed[peer_id] += 1
        if not relevant:
            self.irrelevant_queries[peer_id] += 1

    def record_batch(self, bindings: int) -> None:
        """Account one shipped binding batch (a ``DataPacket``)."""
        self.batches_sent += 1
        self.bindings_per_batch.record(float(bindings))

    def record_queue_depth(self, depth: int) -> None:
        """Observe an admission queue's depth at enqueue time."""
        self.queue_depth_histogram.record(float(depth))

    def observe_stage(self, stage: str, duration: float) -> None:
        """Fold one finished span's duration into its stage histogram."""
        self._stage_pending.append((stage, duration))

    @property
    def stage_latency(self) -> Dict[str, Histogram]:
        """Per-stage span durations, keyed by span name (repro.obs)."""
        pending = self._stage_pending
        if pending:
            self._stage_pending = []
            histograms = self._stage_latency
            for stage, duration in pending:
                histogram = histograms.get(stage)
                if histogram is None:
                    histogram = histograms[stage] = Histogram()
                histogram.record(duration)
        return self._stage_latency

    def query_started(self, query_id: str, time: float) -> None:
        """Open one latency attempt.  Re-submissions of the same query
        id (idempotent client retries) open *additional* attempts
        instead of clobbering the outstanding one."""
        self._query_started.setdefault(query_id, []).append(time)
        self.inflight_queries += 1
        if self.inflight_queries > self.max_inflight_queries:
            self.max_inflight_queries = self.inflight_queries

    def query_finished(self, query_id: str, time: float) -> None:
        """Close the oldest outstanding attempt for ``query_id`` and
        record its latency as one observation."""
        starts = self._query_started.get(query_id)
        if not starts:
            return
        started = starts.pop(0)
        if not starts:
            del self._query_started[query_id]
        self.inflight_queries -= 1
        latency = time - started
        self.latency_histogram.record(latency)
        if self.on_query_latency is not None:
            self.on_query_latency(query_id, latency)

    def inflight_query_ids(self) -> List[str]:
        """Query ids with at least one open (unfinished) attempt."""
        return sorted(self._query_started)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricSnapshot:
        """All cumulative counters so far."""
        return MetricSnapshot(
            self.messages_total,
            self.bytes_total,
            *(getattr(self, name) for name in COUNTERS),
            Counter(self.messages_by_kind),
            Counter(self.bytes_by_kind),
        )

    def mean_latency(self) -> Optional[float]:
        """Mean over every finished attempt (``None`` before the first)."""
        return self.latency_histogram.mean

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p90/p99/max over every latency observation (zeros when
        nothing finished yet — stable keys for bench JSON schemas)."""
        summary = self.latency_histogram.summary()
        return {key: summary.get(key, 0.0) for key in ("p50", "p90", "p99", "max")}

    def summary(self) -> Dict[str, float]:
        """A flat dict of headline numbers for bench output: the
        traffic totals, the latency profile (``mean_latency`` is kept
        alongside the percentile keys for continuity with older
        reports) and every declared scalar counter under its name."""
        return {
            "messages": self.messages_total,
            "bytes": self.bytes_total,
            "queries_processed": sum(self.queries_processed.values()),
            "irrelevant_queries": sum(self.irrelevant_queries.values()),
            "mean_latency": self.mean_latency() or 0.0,
            **{f"latency_{k}": v for k, v in self.latency_percentiles().items()},
            **{name: getattr(self, name) for name in COUNTERS},
            "mean_bindings_per_batch": self.bindings_per_batch.mean or 0.0,
            "max_inflight_queries": self.max_inflight_queries,
        }

    def __repr__(self) -> str:
        return (
            f"MetricSet(messages={self.messages_total}, bytes={self.bytes_total}, "
            f"queries={sum(self.queries_processed.values())})"
        )
