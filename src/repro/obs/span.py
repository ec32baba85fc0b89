"""Spans: the unit of distributed tracing.

A :class:`Span` covers one stage of a query's life at one peer —
routing, a subsumption-backed route computation, plan compilation, an
optimiser rewrite, a channel's lifetime, a remote subplan execution —
with start/end stamped on the simulator's *virtual* clock.  Its
:class:`TraceContext` is what travels inside network messages so that
child spans opened on remote peers stitch into the same causal tree.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..metrics.histogram import FLUSH_THRESHOLD


def _stringify(value: Any):
    """Render deferred attribute values at export time.  Spans may hold
    live objects (e.g. an optimiser's plan tree) so that the hot path
    never pays for string building; anything with a ``render()`` is
    rendered here, when the trace is actually read.  The result is
    always a JSON scalar — exports must serialise strictly, without a
    ``default=`` escape hatch."""
    render = getattr(value, "render", None)
    if callable(render):
        return str(render())
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


class TraceContext(NamedTuple):
    """The portable identity of a span: enough to parent a child to it
    from another peer.  Rides inside :class:`~repro.net.message.Message`
    envelopes (hybrid routing requests, subplan packets, ad-hoc
    partial-plan forwards alike)."""

    trace_id: str
    span_id: str

    def size_bytes(self) -> int:
        # the W3C traceparent header is ~55 bytes; ours is comparable
        return 16 + len(self.trace_id) + len(self.span_id)


class Span:
    """One recorded stage.

    Attributes:
        trace_id: The query's trace (the root query id).
        span_id: Unique within the collector.
        parent_id: The parent span's id, or ``None`` for the root.
        name: Stage name (``"routing"``, ``"channel"``, ...).
        peer_id: The peer the stage ran at.
        start: Virtual time the stage began.
        end: Virtual time it finished (``None`` while open).
        status: ``"ok"`` / ``"error"`` / ... set by :meth:`finish`.
        attributes: Tagged key/value details.
        events: Timestamped annotations (retries, faults, packets).
    """

    __slots__ = (
        "_tracer",
        "_ctx",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "peer_id",
        "start",
        "end",
        "status",
        "attributes",
        "events",
    )

    def __init__(
        self,
        tracer,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        peer_id: str,
        start: float,
        attributes: Optional[Dict[str, Any]] = None,
    ):
        # a weak proxy (the tracer's collector keeps this span, so a
        # strong reference back would make a cycle)
        self._tracer = tracer
        self._ctx: Optional[TraceContext] = None
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.peer_id = peer_id
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        # adopted, not copied: the tracer hands over a fresh kwargs dict
        self.attributes: Dict[str, Any] = attributes if attributes is not None else {}
        # allocated lazily on the first annotate — most spans have none
        self.events: Optional[List[Tuple[float, str]]] = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def context(self) -> TraceContext:
        """The context to propagate to children (possibly remote)."""
        ctx = self._ctx
        if ctx is None:
            ctx = self._ctx = TraceContext(self.trace_id, self.span_id)
        return ctx

    def set(self, **attributes: Any) -> "Span":
        self.attributes.update(attributes)
        return self

    def annotate(self, text: str) -> None:
        """Record a timestamped event (a retry, a fault, a packet)."""
        if self.events is None:
            self.events = []
        self.events.append((self._tracer.now(), text))

    def finish(self, status: str = "ok") -> None:
        """Close the span (idempotent) and feed its duration to the
        per-stage histograms."""
        if self.end is not None:
            return
        tracer = self._tracer
        end = self.end = tracer.now()
        self.status = status
        metrics = tracer.metrics
        if metrics is not None:
            # bare append (MetricSet.observe_stage, inlined); the
            # per-stage histograms fold lazily
            pending = metrics._stage_pending
            pending.append((self.name, end - self.start))
            if len(pending) >= FLUSH_THRESHOLD:
                metrics.stage_latency  # folds

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable record (stable schema)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "peer": self.peer_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": {
                key: _stringify(value) for key, value in self.attributes.items()
            },
            "events": [list(event) for event in self.events or ()],
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Span":
        """The inverse of :meth:`to_dict`: a span read back from an
        export (a node's, or a merged live-run artifact), to re-validate
        and re-render a trace that crossed a JSON boundary.  It has no
        tracer, so it records nothing further; a field an export lacks
        reads as unknown (``"?"``) rather than failing the read."""
        span = cls(
            None,
            record.get("trace_id", "?"),
            record["span_id"],
            record.get("parent_id"),
            record.get("name", "?"),
            record.get("peer", "?"),
            record.get("start", 0.0),
            dict(record.get("attributes") or {}),
        )
        span.end = record.get("end")
        span.status = record.get("status", "ok")
        span.events = [tuple(event) for event in record.get("events") or ()] or None
        return span

    def __repr__(self) -> str:
        end = f"{self.end:.2f}" if self.end is not None else "…"
        return (
            f"Span({self.name}@{self.peer_id} {self.trace_id}/{self.span_id} "
            f"[{self.start:.2f}–{end}])"
        )
