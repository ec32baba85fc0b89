"""The flight recorder: a bounded black box of control-plane events.

Counters say *how many* sheds or quarantines happened; the flight
recorder says *which* — every restart, quarantine, rehabilitation,
cache invalidation, shed, replan and deadline expiration lands here as
a structured record (``repro.obs/event-v1``) in a bounded ring.  Live
nodes additionally stream each record to a durable per-node
``*.events.jsonl`` (append + flush per write), so a SIGKILLed process
still leaves its last moments on disk for the launcher's crash
bundle.

Recording is uncharged: events never touch simulated quantities, so a
recorded run stays bit-identical to an unrecorded one — the same
invariant the tracer keeps.

The :class:`SlowQueryLog` rides the same philosophy for latency
outliers: any query slower than its threshold gets its query id,
latency and — when a collector is attached — full trace retained, so
the one-in-a-thousand straggler is explainable after the fact.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import Any, Callable, Deque, Dict, List, Optional

#: schema tag stamped into every flight-recorder record
EVENT_SCHEMA = "repro.obs/event-v1"

#: the record kinds the repro's subsystems emit (documented contract;
#: unknown kinds are recorded too — the set is advisory, not enforced)
KNOWN_KINDS = (
    "shed",
    "deadline_expired",
    "replan",
    "quarantine",
    "rehabilitate",
    "cache_invalidate",
    "peer_down",
    "peer_up",
    "join",
    "leave",
    "crash",
    "rejoin",
    "recovery",
    "restart",
    "breaker_trip",
    "slow_query",
    # live data plane (repro.livedata)
    "update_batch",
    "advertise_delta",
    "topk_cancel",
)


class FlightRecorder:
    """Bounded structured event storage with an optional durable sink.

    Args:
        clock: Timestamps records (virtual time in-sim, wall live).
        capacity: Ring size; the oldest records fall off.
        sink: Optional callable receiving each record dict as it is
            recorded (live nodes pass a durable JSONL appender).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        capacity: int = 512,
        sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.clock = clock
        self.capacity = capacity
        self.sink = sink
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self.counts: Counter = Counter()
        self.dropped = 0

    def record(self, kind: str, peer: Optional[str] = None, **fields: Any) -> Dict[str, Any]:
        """Record one event; returns the record."""
        record = {"t": self.clock(), "kind": kind}
        if peer is not None:
            record["peer"] = peer
        if fields:
            record.update(fields)
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)
        self.counts[kind] += 1
        if self.sink is not None:
            self.sink(record)
        return record

    def events(self, kind: Optional[str] = None, peer: Optional[str] = None) -> List[Dict[str, Any]]:
        """Retained records, oldest first, optionally filtered."""
        out = list(self._ring)
        if kind is not None:
            out = [record for record in out if record["kind"] == kind]
        if peer is not None:
            out = [record for record in out if record.get("peer") == peer]
        return out

    def __len__(self) -> int:
        return len(self._ring)

    def export(self) -> Dict[str, Any]:
        """A JSON-ready dump (stable schema)."""
        return {
            "schema": EVENT_SCHEMA,
            "dropped": self.dropped,
            "counts": dict(self.counts),
            "events": list(self._ring),
        }


class JsonlSink:
    """A durable line-per-record appender (flushed per write, so a
    SIGKILL loses at most the record being written)."""

    def __init__(self, path):
        self.path = path
        self._handle = open(path, "a", buffering=1)

    def __call__(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, default=str) + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


class SlowQueryLog:
    """Retains the slowest queries above a latency threshold.

    Args:
        threshold: Latency (the metric clock's units) above which a
            query is logged.
        capacity: Worst-N bound on retained entries.
        collector: Optional
            :class:`~repro.obs.collect.TraceCollector`; when present,
            each logged entry carries the query's full trace export.
        on_slow: Optional callback ``(entry_dict)`` — live nodes dump
            the trace to disk from it.
    """

    def __init__(
        self,
        threshold: float,
        capacity: int = 32,
        collector=None,
        on_slow: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        if threshold <= 0:
            raise ValueError("slow-query threshold must be positive")
        self.threshold = threshold
        self.capacity = capacity
        self.collector = collector
        self.on_slow = on_slow
        #: logged entries, slowest first, at most ``capacity``
        self.entries: List[Dict[str, Any]] = []
        self.observed = 0

    def install(self, metrics) -> "SlowQueryLog":
        """Hook into a :class:`MetricSet`'s per-query latency stream."""
        metrics.on_query_latency = self.observe
        return self

    def observe(self, query_id: str, latency: float) -> None:
        self.observed += 1
        if latency < self.threshold:
            return
        entry: Dict[str, Any] = {
            "query_id": query_id,
            "latency": latency,
            "threshold": self.threshold,
        }
        if self.collector is not None and query_id in self.collector.trace_ids():
            # the query id doubles as the trace id (see ClientPeer.submit)
            entry["trace"] = self.collector.export(query_id)
        self.entries.append(entry)
        self.entries.sort(key=lambda item: -item["latency"])
        del self.entries[self.capacity:]
        if self.on_slow is not None:
            self.on_slow(entry)

    def __len__(self) -> int:
        return len(self.entries)
