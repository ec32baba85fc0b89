"""The instrument table: every metric the repro exposes, declared once.

Which metrics exist, what they are called and what their help text says
is decided here and nowhere else: ``MetricSet`` zeroes and writes its
counters from :data:`COUNTERS`, whose names are also ``MetricSnapshot``'s
fields and ``summary()``'s keys, and the Prometheus exposition and the
telemetry sampler's family map are views over :data:`INSTRUMENTS`.  The
module imports nothing from the package — ``repro.metrics`` and
``repro.obs`` each read it while the other loads.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

#: Scalar counters, ``name -> help``, moved by ``MetricSet.count``.  The
#: name is the ``MetricSet`` attribute, the ``MetricSnapshot`` field and
#: the ``summary()`` key, and ``repro_<name>_total`` the exposed family;
#: dict order is the snapshot's field order and the exposition's.
COUNTERS: Dict[str, str] = {
    # cache subsystem (repro.cache): routing/plan cache traffic and
    # singleflight coalescing across every peer on the network
    "cache_hits": "Routing/plan cache hits",
    "cache_misses": "Routing/plan cache misses",
    "cache_invalidations": "Cache entries invalidated",
    "coalesced_queries": "Queries parked behind a singleflight leader",
    # resilience subsystem (repro.resilience): retry/fault traffic
    "retries": "Protocol-level retries",
    "retransmits": "Channel subplan retransmits",
    "suspicions": "Peer suspicions recorded",
    "partial_results": "Coverage-annotated partial answers",
    "dropped_messages": "Messages dropped by the fault plan",
    "duplicated_messages": "Messages duplicated by the fault plan",
    # batched shipping (repro.channels)
    "subplans_shipped": "Subplans shipped (one SubPlanPacket carries a destination's)",
    "scans_empty": "Shipped subplans that came back with zero rows",
    "batches_sent": "Binding batches (DataPackets) shipped",
    "discarded_bindings": "Bindings thrown away by plan discards",
    # workload engine (repro.workload_engine)
    "queries_shed": "Queries refused by admission control",
    "deadline_expirations": "Per-query deadlines that fired",
    # membership + durability (repro.membership / repro.durability)
    "joins": "Peers registering with the overlay",
    "goodbyes": "Graceful departures observed",
    "rejoins": "Peers re-advertising after crash or departure",
    "recoveries": "Crash recoveries from durable state",
    "log_replays": "Membership-log records replayed on recovery",
    "snapshot_bytes": "Bytes written by durable-state snapshots",
    # live data plane (repro.livedata)
    "topk_cancels": "Top-k queries that cancelled their remaining channels early",
    "continuous_pushes": "Continuous-query deltas pushed to subscribers",
}


class Instrument(NamedTuple):
    """How one ``MetricSet`` attribute is exposed."""

    kind: str  # "counter", "gauge" or "histogram"
    attribute: str
    family: str  # the Prometheus family name
    help: str
    #: label splitting the family — the attribute is then a mapping
    #: ``label value -> number / Histogram``; ``None`` for one series
    label: Optional[str] = None
    #: a histogram with this set also exposes a ``<family>_quantile``
    #: gauge (p50/p90/p99/max) under this help text
    quantile_help: Optional[str] = None


#: Every instrument, in exposition order.  A histogram family with no
#: observation yet is left out of an exposition.
INSTRUMENTS = (
    # the per-message path (record_message / record_query_processed)
    Instrument("counter", "messages_total", "repro_messages_total",
               "Messages delivered"),
    Instrument("counter", "bytes_total", "repro_bytes_total", "Payload bytes shipped"),
    Instrument("counter", "messages_by_kind", "repro_messages_by_kind_total",
               "Messages by payload kind", "kind"),
    Instrument("counter", "bytes_by_kind", "repro_bytes_by_kind_total",
               "Bytes by payload kind", "kind"),
    Instrument("counter", "queries_processed", "repro_queries_processed_total",
               "Queries processed per peer", "peer"),
    *(
        Instrument("counter", name, f"repro_{name}_total", help_text)
        for name, help_text in COUNTERS.items()
    ),
    # coordinations in flight at once (query_started / query_finished)
    Instrument("gauge", "inflight_queries", "repro_inflight_queries",
               "Queries currently in flight"),
    Instrument("gauge", "max_inflight_queries", "repro_max_inflight_queries",
               "High-watermark of concurrent queries"),
    Instrument("histogram", "queue_depth_histogram", "repro_admission_queue_depth",
               "Admission queue depth observed at enqueue time"),
    Instrument("histogram", "latency_histogram", "repro_query_latency",
               "End-to-end query latency (virtual time), all attempts",
               quantile_help="Query latency percentiles"),
    Instrument("histogram", "bindings_per_batch", "repro_bindings_per_batch",
               "Bindings carried per shipped batch"),
    Instrument("histogram", "stage_latency", "repro_stage_duration",
               "Per-stage span durations (virtual time)", "stage"),
    Instrument("histogram", "message_delay_by_kind", "repro_message_delay",
               "Scheduled delivery delay per message kind", "kind"),
)

#: ``MetricSet`` attribute -> Prometheus family.
FAMILIES: Dict[str, str] = {spec.attribute: spec.family for spec in INSTRUMENTS}
