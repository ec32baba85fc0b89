"""Tracer: mints spans against the simulator's virtual clock.

One :class:`Tracer` serves a whole simulated network (it plays the
role a per-process tracer plus an OTLP backend would play in a real
deployment): peers call ``network.tracer.start_span(...)`` and pass
the returned span's :class:`~repro.obs.span.TraceContext` along inside
messages.  Finished spans flow into a
:class:`~repro.obs.collect.TraceCollector` and their durations feed
the per-stage histograms of :class:`~repro.metrics.collectors.MetricSet`.

Whether a query is traced is decided once, where it is rooted
(:meth:`Tracer.root`: ``ClientPeer.submit``, or a coordinator handed a
submit without a context): one query in :data:`SAMPLE_EVERY`, by the
stable :func:`sampled`, plus every query its caller marks.  The
decision rides in the trace context: an unsampled query's messages
carry none, and every hop it crosses (:meth:`Tracer.stage`) times its
stage with a :class:`StageTimer` instead of opening a span, so the
stage histograms still see every stage while no span tree is built.
An unsampled query that ends badly leaves a root summary
(:meth:`Tracer.summarize`).

The disabled path is a **no-op recorder**: :data:`NULL_TRACER` returns
the shared :data:`NULL_SPAN` singleton from every call, whose methods
do nothing and whose ``context()`` is ``None`` — so messages carry no
context and the whole query path runs at seed cost.
"""

from __future__ import annotations

import itertools
import weakref
import zlib
from typing import Any, Callable, Optional

from ..metrics.histogram import FLUSH_THRESHOLD
from .span import Span, TraceContext

#: one query in this many is traced (plus every query marked to trace)
SAMPLE_EVERY = 16
#: an unsampled query at least this long (virtual time) ends slow and
#: leaves a root summary: the p99-latency SLO's default bound
SLOW_QUERY = 600.0


def sampled(query_id: str) -> bool:
    """Whether ``query_id`` is traced without being marked: a stable
    function of the id alone (no ``hash()`` of a str, no simulator
    randomness), so a sim and a live run of one scenario sample the
    same queries.  An id ending in an ordinal ``n`` (a client's
    ``<client>-q<n>``) is sampled when ``n`` is 1 modulo
    :data:`SAMPLE_EVERY`, so the first query of a run always is; any
    other id by its CRC-32."""
    digits = len(query_id) - len(query_id.rstrip("0123456789"))
    if digits:
        return (int(query_id[-digits:]) - 1) % SAMPLE_EVERY == 0
    return zlib.crc32(query_id.encode()) % SAMPLE_EVERY == 0


class StageTimer:
    """An unsampled hop's stage: a clock read at either end and one
    stage-histogram entry, nothing kept.  It answers a span's calls
    (:meth:`set` and :meth:`annotate` do nothing, :meth:`context` is
    ``None``, so what it sends carries no trace) and, like
    :data:`NULL_SPAN`, is false: only a span records details."""

    __slots__ = ("_tracer", "name", "start", "end")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self.name = name
        self.start = tracer.now()
        self.end: Optional[float] = None

    def context(self) -> None:
        return None

    def set(self, **attributes: Any) -> "StageTimer":
        return self

    def annotate(self, text: str) -> None:
        pass

    def finish(self, status: str = "ok") -> None:
        """Feed the stage histogram (idempotent, as a span's)."""
        if self.end is not None:
            return
        tracer = self._tracer
        end = self.end = tracer.now()
        metrics = tracer.metrics
        if metrics is not None:
            # MetricSet.observe_stage, inlined, as in Span.finish
            pending = metrics._stage_pending
            pending.append((self.name, end - self.start))
            if len(pending) >= FLUSH_THRESHOLD:
                metrics.stage_latency  # folds

    def __bool__(self) -> bool:
        return False


class Tracer:
    """The recording tracer.

    Args:
        clock: Returns the current virtual time (``lambda: network.now``).
        collector: Receives every finished span (optional).
        metrics: A :class:`~repro.metrics.collectors.MetricSet`; each
            finished span's duration is folded into the per-stage
            histogram under the span's name (optional).
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float],
        collector=None,
        metrics=None,
    ):
        # bound directly (not wrapped in a method): ``now`` sits on the
        # hot path of every span start/finish/annotate
        self.now = clock
        self.collector = collector
        self.metrics = metrics
        self._ids = itertools.count(1)
        #: what a span holds of its tracer: the collector keeps spans,
        #: so a span points back weakly
        self._weak = weakref.proxy(self)
        #: appended to every minted span id.  In-sim it stays
        #: empty (one tracer serves the whole network, ids are already
        #: unique and deterministic); each live node process sets it to
        #: ``@<node-id>`` so ids from different processes never collide
        #: when the launcher stitches their exports into one trace.
        self.id_suffix = ""

    def start_span(
        self,
        name: str,
        peer: str,
        parent: Optional[TraceContext] = None,
        trace_id: Optional[str] = None,
        **attributes: Any,
    ) -> Span:
        """Open a span: under ``parent`` when set, else the root of the
        trace ``trace_id`` — query traces use the query id, keeping
        exports deterministic across same-seed runs.  Query code opens
        spans through :meth:`root` and :meth:`stage`, which decide
        whether there is one."""
        if parent is not None:
            trace_id = parent.trace_id
            parent_id: Optional[str] = parent.span_id
        else:
            parent_id = None
        span = Span(
            self._weak,
            trace_id,
            f"s{next(self._ids)}{self.id_suffix}",
            parent_id,
            name,
            peer,
            self.now(),
            attributes,
        )
        if self.collector is not None:
            self.collector.on_started(span)
        return span

    def root(
        self,
        name: str,
        peer: str,
        query_id: str,
        parent: Optional[TraceContext] = None,
        traced: bool = False,
        **attributes: Any,
    ):
        """Where a query is rooted, decide whether it is traced: it
        joins ``parent`` when the submit carried one, else it roots the
        trace ``query_id`` when ``traced`` (the caller marked it) or
        :func:`sampled`; otherwise its root stage is a
        :class:`StageTimer` and no hop of it builds a span."""
        if parent is None and not (traced or sampled(query_id)):
            return StageTimer(self, name)
        return self.start_span(name, peer, parent, trace_id=query_id, **attributes)

    def stage(
        self, name: str, peer: str, parent: Optional[TraceContext], **attributes: Any
    ):
        """One hop of a query: a span under ``parent``, or — the query
        is unsampled, so its message carried no context — a
        :class:`StageTimer`."""
        if parent is None:
            return StageTimer(self, name)
        return self.start_span(name, peer, parent, **attributes)

    def summarize(self, query_id: str, root, status: str, **fields: Any) -> None:
        """Keep the summary of an unsampled query whose root stage
        ``root`` (a finished :class:`StageTimer`) ended slow, not
        ``ok``, or after more than one attempt: its span tree was never
        built.  A traced query has its tree instead."""
        if self.collector is None or not isinstance(root, StageTimer):
            return
        duration = root.end - root.start
        if status == "ok" and duration < SLOW_QUERY and fields.get("attempts", 1) <= 1:
            return
        self.collector.summarize(query_id, status=status, duration=duration, **fields)


class _NullSpan:
    """The shared do-nothing span (disabled-observability path)."""

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    peer_id = ""
    start = 0.0
    end: Optional[float] = 0.0
    status = "ok"
    attributes: dict = {}
    events: list = []
    duration: Optional[float] = 0.0

    def context(self) -> None:
        return None

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def annotate(self, text: str) -> None:
        pass

    def finish(self, status: str = "ok") -> None:
        pass

    def to_dict(self) -> dict:
        return {}

    def __repr__(self) -> str:
        return "NullSpan()"

    def __bool__(self) -> bool:
        return False


#: The singleton no-op span every :class:`NullTracer` call returns.
NULL_SPAN = _NullSpan()


class NullTracer:
    """The no-op recorder: observability disabled at zero overhead."""

    enabled = False
    collector = None
    metrics = None

    def now(self) -> float:
        return 0.0

    def start_span(self, name, peer, parent=None, trace_id=None, **attributes):
        return NULL_SPAN

    def root(self, name, peer, query_id, parent=None, traced=False, **attributes):
        return NULL_SPAN

    def stage(self, name, peer, parent, **attributes):
        return NULL_SPAN

    def summarize(self, query_id, root, status, **fields) -> None:
        pass


#: Shared instance handed to networks built with observability off.
NULL_TRACER = NullTracer()
