"""Metric collection shared by the network simulator and benchmarks."""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..obs.histogram import Histogram


class MetricSnapshot(NamedTuple):
    """A point-in-time reading of the cumulative counters.

    The first two fields keep the historical ``(messages, bytes)``
    layout; the cache/resilience counters ride behind them, and the
    per-kind counters bring up the rear so :meth:`MetricSet.delta` can
    report per-kind movement for a single query.
    """

    messages: int
    bytes: int
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    coalesced_queries: int = 0
    retries: int = 0
    retransmits: int = 0
    suspicions: int = 0
    partial_results: int = 0
    dropped_messages: int = 0
    duplicated_messages: int = 0
    batches_sent: int = 0
    discarded_bindings: int = 0
    queries_shed: int = 0
    deadline_expirations: int = 0
    joins: int = 0
    goodbyes: int = 0
    rejoins: int = 0
    recoveries: int = 0
    log_replays: int = 0
    snapshot_bytes: int = 0
    messages_by_kind: Counter = Counter()
    bytes_by_kind: Counter = Counter()


class MetricSet:
    """Counters the experiments report: messages, bytes, per-peer load.

    All counters are cumulative; :meth:`snapshot` / :meth:`delta` let a
    benchmark measure one query in isolation.  Latency is kept as
    **per-attempt observations** feeding a bucketed
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
        self.messages_sent: Counter = Counter()  # per peer
        self.queries_processed: Counter = Counter()  # per peer
        self.irrelevant_queries: Counter = Counter()  # per peer
        #: latest attempt's latency per query id (legacy view — use
        #: :attr:`query_latencies` for the full per-attempt record)
        self.query_latency: Dict[str, float] = {}
        #: every finished attempt's latency, per query id; idempotent
        #: resubmits of the same id append instead of clobbering
        self.query_latencies: Dict[str, List[float]] = {}
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
        # cache subsystem (repro.cache): routing/plan cache traffic and
        # singleflight coalescing across every peer on the network
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        self.coalesced_queries = 0
        # resilience subsystem (repro.resilience): retry/fault traffic
        self.retries = 0
        self.retransmits = 0
        self.suspicions = 0
        self.partial_results = 0
        self.dropped_messages = 0
        self.duplicated_messages = 0
        # batched shipping (repro.channels): how many binding
        # batches went over the wire, how full they were, and how many
        # bindings a discarded plan threw away before reaching a consumer
        self.batches_sent = 0
        self.discarded_bindings = 0
        self.bindings_per_batch = Histogram()
        # workload engine (repro.workload_engine): admission control and
        # concurrency — queries refused with a retry-after, per-query
        # deadlines that fired, and how many coordinations were in
        # flight at once (a gauge with a high-watermark, not a counter)
        self.queries_shed = 0
        self.deadline_expirations = 0
        # live data plane (repro.livedata): top-k queries that cancelled
        # their remaining channels early, and continuous-query delta
        # pushes shipped to subscribers
        self.topk_cancels = 0
        self.continuous_pushes = 0
        self.inflight_queries = 0
        self.max_inflight_queries = 0
        self.queue_depth_histogram = Histogram()
        # membership + durability (repro.membership / repro.durability):
        # peers joining/leaving/rejoining the overlay, crash recoveries
        # from durable state, log records replayed and snapshot bytes
        # written
        self.joins = 0
        self.goodbyes = 0
        self.rejoins = 0
        self.recoveries = 0
        self.log_replays = 0
        self.snapshot_bytes = 0
        # telemetry (repro.obs.telemetry): per-query latency tap — the
        # slow-query log installs itself here; None costs one comparison
        self.on_query_latency: Optional[Callable[[str, float], None]] = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_message(
        self, kind: str, src: str, dst: str, size: int, delay: Optional[float] = None
    ) -> None:
        self.messages_total += 1
        self.bytes_total += size
        self.messages_by_kind[kind] += 1
        self.bytes_by_kind[kind] += size
        self.messages_sent[src] += 1
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

    def record_cache_hit(self) -> None:
        self.cache_hits += 1

    def record_cache_miss(self) -> None:
        self.cache_misses += 1

    def record_cache_invalidation(self, count: int = 1) -> None:
        self.cache_invalidations += count

    def record_coalesced_query(self) -> None:
        self.coalesced_queries += 1

    def record_retry(self) -> None:
        self.retries += 1

    def record_retransmit(self) -> None:
        self.retransmits += 1

    def record_suspicion(self) -> None:
        self.suspicions += 1

    def record_partial_result(self) -> None:
        self.partial_results += 1

    def record_dropped_message(self) -> None:
        self.dropped_messages += 1

    def record_duplicated_message(self) -> None:
        self.duplicated_messages += 1

    def record_batch(self, bindings: int) -> None:
        """Account one shipped binding batch (a ``DataPacket``)."""
        self.batches_sent += 1
        self.bindings_per_batch.record(float(bindings))

    def record_discarded_bindings(self, count: int = 1) -> None:
        """Account bindings dropped by a discarded plan mid-stream."""
        self.discarded_bindings += count

    def record_shed_query(self) -> None:
        """Account one query refused by admission control."""
        self.queries_shed += 1

    def record_deadline_expiration(self) -> None:
        """Account one per-query deadline that cancelled a straggler."""
        self.deadline_expirations += 1

    def record_topk_cancel(self) -> None:
        """Account one top-k query that terminated its remaining
        channels early (enough distinct rows were already stable)."""
        self.topk_cancels += 1

    def record_continuous_push(self) -> None:
        """Account one continuous-query delta pushed to a subscriber."""
        self.continuous_pushes += 1

    def record_queue_depth(self, depth: int) -> None:
        """Observe an admission queue's depth at enqueue time."""
        self.queue_depth_histogram.record(float(depth))

    def record_join(self) -> None:
        """Account one peer registering with the overlay for the
        first time (its advertisement landed at a holder)."""
        self.joins += 1

    def record_goodbye(self) -> None:
        """Account one graceful departure observed by a holder."""
        self.goodbyes += 1

    def record_rejoin(self) -> None:
        """Account one peer re-advertising after a crash or departure."""
        self.rejoins += 1

    def record_recovery(self) -> None:
        """Account one crash recovery from durable state."""
        self.recoveries += 1

    def record_log_replay(self, count: int = 1) -> None:
        """Account membership-log records replayed during a recovery."""
        self.log_replays += count

    def record_snapshot_bytes(self, nbytes: int) -> None:
        """Account bytes written by one durable-state snapshot."""
        self.snapshot_bytes += nbytes

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
        self.query_latencies.setdefault(query_id, []).append(latency)
        self.query_latency[query_id] = latency
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
        """All cumulative counters so far (``[:2]`` is the historical
        ``(messages, bytes)`` pair)."""
        return MetricSnapshot(
            self.messages_total,
            self.bytes_total,
            self.cache_hits,
            self.cache_misses,
            self.cache_invalidations,
            self.coalesced_queries,
            self.retries,
            self.retransmits,
            self.suspicions,
            self.partial_results,
            self.dropped_messages,
            self.duplicated_messages,
            self.batches_sent,
            self.discarded_bindings,
            self.queries_shed,
            self.deadline_expirations,
            self.joins,
            self.goodbyes,
            self.rejoins,
            self.recoveries,
            self.log_replays,
            self.snapshot_bytes,
            Counter(self.messages_by_kind),
            Counter(self.bytes_by_kind),
        )

    def delta(self, snapshot: Tuple) -> MetricSnapshot:
        """Counter movement since a snapshot.

        Accepts a full :class:`MetricSnapshot` or the historical bare
        ``(messages, bytes)`` pair (the remaining counters then delta
        against zero).  The per-kind counters are deltaed too, so one
        query's message-kind breakdown needs no hand-copied Counter.
        """
        base = MetricSnapshot(*snapshot)
        kind_messages = Counter(self.messages_by_kind)
        kind_messages.subtract(base.messages_by_kind)
        kind_bytes = Counter(self.bytes_by_kind)
        kind_bytes.subtract(base.bytes_by_kind)
        return MetricSnapshot(
            self.messages_total - base.messages,
            self.bytes_total - base.bytes,
            self.cache_hits - base.cache_hits,
            self.cache_misses - base.cache_misses,
            self.cache_invalidations - base.cache_invalidations,
            self.coalesced_queries - base.coalesced_queries,
            self.retries - base.retries,
            self.retransmits - base.retransmits,
            self.suspicions - base.suspicions,
            self.partial_results - base.partial_results,
            self.dropped_messages - base.dropped_messages,
            self.duplicated_messages - base.duplicated_messages,
            self.batches_sent - base.batches_sent,
            self.discarded_bindings - base.discarded_bindings,
            self.queries_shed - base.queries_shed,
            self.deadline_expirations - base.deadline_expirations,
            self.joins - base.joins,
            self.goodbyes - base.goodbyes,
            self.rejoins - base.rejoins,
            self.recoveries - base.recoveries,
            self.log_replays - base.log_replays,
            self.snapshot_bytes - base.snapshot_bytes,
            +kind_messages,  # unary + drops zero/negative entries
            +kind_bytes,
        )

    def peak_peer_load(self) -> int:
        """The highest per-peer processed-query count."""
        return max(self.queries_processed.values(), default=0)

    def all_latencies(self) -> List[float]:
        """Every finished attempt's latency, across all query ids."""
        return [
            latency
            for observations in self.query_latencies.values()
            for latency in observations
        ]

    def mean_latency(self) -> Optional[float]:
        observations = self.all_latencies()
        if not observations:
            return None
        return sum(observations) / len(observations)

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p90/p99/max over every latency observation (zeros when
        nothing finished yet — stable keys for bench JSON schemas)."""
        histogram = self.latency_histogram
        if not histogram.count:
            return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "p50": histogram.percentile(50),
            "p90": histogram.percentile(90),
            "p99": histogram.percentile(99),
            "max": histogram.max,
        }

    def summary(self) -> Dict[str, float]:
        """A flat dict of headline numbers for bench output.

        ``mean_latency`` is kept alongside the percentile keys for
        continuity with older reports.
        """
        percentiles = self.latency_percentiles()
        return {
            "messages": self.messages_total,
            "bytes": self.bytes_total,
            "queries_processed": sum(self.queries_processed.values()),
            "irrelevant_queries": sum(self.irrelevant_queries.values()),
            "mean_latency": self.mean_latency() or 0.0,
            "latency_p50": percentiles["p50"],
            "latency_p90": percentiles["p90"],
            "latency_p99": percentiles["p99"],
            "latency_max": percentiles["max"],
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_invalidations": self.cache_invalidations,
            "coalesced_queries": self.coalesced_queries,
            "retries": self.retries,
            "retransmits": self.retransmits,
            "suspicions": self.suspicions,
            "partial_results": self.partial_results,
            "dropped_messages": self.dropped_messages,
            "duplicated_messages": self.duplicated_messages,
            "batches_sent": self.batches_sent,
            "discarded_bindings": self.discarded_bindings,
            "mean_bindings_per_batch": self.bindings_per_batch.mean or 0.0,
            "queries_shed": self.queries_shed,
            "deadline_expirations": self.deadline_expirations,
            "max_inflight_queries": self.max_inflight_queries,
            "joins": self.joins,
            "goodbyes": self.goodbyes,
            "rejoins": self.rejoins,
            "recoveries": self.recoveries,
            "log_replays": self.log_replays,
            "snapshot_bytes": self.snapshot_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"MetricSet(messages={self.messages_total}, bytes={self.bytes_total}, "
            f"queries={sum(self.queries_processed.values())})"
        )
