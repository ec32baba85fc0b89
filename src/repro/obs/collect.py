"""Trace collection: bounded storage, trees, validation, JSON export.

The :class:`TraceCollector` keeps every span of the most recent traces
(whole traces are evicted oldest-first once either bound is exceeded),
builds the causal tree of a trace, validates it — single root, no
orphans, children causally after their parent — and exports traces as
JSON-serialisable dicts with a stable schema.  Beside the trees it keeps
the root summaries of unsampled queries that ended badly
(:meth:`TraceCollector.summarize`), under the same bound.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Dict, List, Optional

from .span import Span

#: Tolerance for start-time comparisons on the virtual clock.
_EPS = 1e-9


def _span_order(span: Span):
    """Sort key: start time, then creation order (span ids are
    ``s<n>`` — or ``s<n>@<node>`` from a live process — so the digits
    after the ``s`` recover mint order; lexicographic comparison would
    put ``s10`` before ``s2``)."""
    digits = ""
    for char in span.span_id[1:]:
        if not char.isdigit():
            break
        digits += char
    return (span.start, int(digits) if digits else 0, span.span_id)


class TraceCollector:
    """Bounded per-trace span storage.

    Args:
        max_traces: How many distinct traces to retain.
        max_spans: Total span budget across all retained traces.
    """

    def __init__(self, max_traces: int = 256, max_spans: int = 50_000):
        self.max_traces = max_traces
        self.max_spans = max_spans
        self._traces: "OrderedDict[str, List[Span]]" = OrderedDict()
        self._span_count = 0
        #: whole traces dropped to stay within bounds
        self.evicted_traces = 0
        #: root summaries of unsampled queries, by query id, oldest
        #: first (at most ``max_traces``)
        self.summaries: "OrderedDict[str, dict]" = OrderedDict()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def on_started(self, span: Span) -> None:
        """Register a span the moment it opens, so still-running stages
        appear in exports (marked by ``end: null``)."""
        spans = self._traces.get(span.trace_id)
        if spans is None:
            spans = self._traces[span.trace_id] = []
        spans.append(span)
        self._span_count += 1
        if self._span_count > self.max_spans or len(self._traces) > self.max_traces:
            self._evict()

    def _evict(self) -> None:
        while len(self._traces) > 1 and (
            len(self._traces) > self.max_traces or self._span_count > self.max_spans
        ):
            _, dropped = self._traces.popitem(last=False)
            self._span_count -= len(dropped)
            self.evicted_traces += 1

    def summarize(self, query_id: str, **fields) -> None:
        """Keep (or extend: the client's root and the coordinator may
        each report) an unsampled query's summary: its ``status``,
        ``duration``, ``coverage``, ``attempts``."""
        summary = self.summaries.get(query_id)
        if summary is None:
            summary = self.summaries[query_id] = {"query_id": query_id}
            while len(self.summaries) > self.max_traces:
                self.summaries.popitem(last=False)
        summary.update(fields)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def trace_ids(self) -> List[str]:
        return list(self._traces)

    def spans(self, trace_id: str) -> List[Span]:
        """The trace's spans, ordered by (start, creation order)."""
        spans = list(self._traces.get(trace_id, ()))
        spans.sort(key=_span_order)
        return spans

    def latest_trace_id(self) -> Optional[str]:
        return next(reversed(self._traces)) if self._traces else None

    def __len__(self) -> int:
        return self._span_count

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export(self, trace_id: Optional[str] = None) -> dict:
        """One trace (or all retained ones) as a JSON-ready dict."""
        if trace_id is not None:
            ids = [trace_id]
        else:
            ids = self.trace_ids()
        return {
            "schema": "repro.obs/trace-v1",
            "evicted_traces": self.evicted_traces,
            "summaries": [
                summary for qid, summary in self.summaries.items()
                if trace_id is None or qid == trace_id
            ],
            "traces": [
                {
                    "trace_id": tid,
                    "spans": [span.to_dict() for span in self.spans(tid)],
                }
                for tid in ids
            ],
        }

    def export_json(self, trace_id: Optional[str] = None) -> str:
        # strict: Span.to_dict guarantees JSON scalars, so any
        # non-serialisable value here is a bug worth crashing on —
        # no ``default=str`` escape hatch.  Compact, so the C encoder
        # writes it (``indent`` selects the pure-Python one)
        return json.dumps(self.export(trace_id))


def span_tree(spans: List[Span]) -> Dict[Optional[str], List[Span]]:
    """Children keyed by parent span id (``None`` holds the roots)."""
    tree: Dict[Optional[str], List[Span]] = {}
    ids = {span.span_id for span in spans}
    for span in sorted(spans, key=_span_order):
        parent = span.parent_id if span.parent_id in ids else None
        tree.setdefault(parent, []).append(span)
    return tree


def validate_trace(spans: List[Span], cross_clock: bool = False) -> List[str]:
    """Check a trace is a single rooted, gap-free causal tree.

    Returns a list of problems (empty means valid):

    * exactly one root span;
    * every non-root span's parent is present (no orphans — a missing
      parent is a *gap* in the causal chain, the symptom of a dropped
      trace context);
    * no span starts before its parent (causality on virtual time);
    * no span is left unfinished.

    ``cross_clock=True`` restricts the causality check to spans on the
    same peer: a live deployment's processes each run their own
    virtual-clock epoch, so start times are only comparable within one
    process (in-sim every peer shares the simulator clock, and the full
    check applies).
    """
    problems: List[str] = []
    if not spans:
        return ["empty trace"]
    by_id = {span.span_id: span for span in spans}
    roots = [span for span in spans if span.parent_id is None]
    if len(roots) != 1:
        problems.append(
            f"expected exactly 1 root span, found {len(roots)}: "
            + ", ".join(f"{s.name}@{s.peer_id}" for s in roots)
        )
    for span in spans:
        if span.parent_id is not None and span.parent_id not in by_id:
            problems.append(
                f"orphan span {span.name}@{span.peer_id} "
                f"(parent {span.parent_id} missing — context gap)"
            )
        parent = by_id.get(span.parent_id) if span.parent_id else None
        if (
            parent is not None
            and span.start + _EPS < parent.start
            and (not cross_clock or span.peer_id == parent.peer_id)
        ):
            problems.append(
                f"span {span.name}@{span.peer_id} starts at {span.start} "
                f"before its parent {parent.name} ({parent.start})"
            )
        if span.end is None:
            problems.append(f"span {span.name}@{span.peer_id} never finished")
    return problems


def spans_from_dicts(records: List[dict]) -> List[Span]:
    """Exported span dicts as render/validate-ready spans
    (:meth:`Span.from_dict`), ordered by (start, creation order)."""
    spans = [Span.from_dict(record) for record in records]
    spans.sort(key=_span_order)
    return spans


def stitch_trace_exports(exports: List[dict]) -> Dict[str, List[dict]]:
    """Merge per-process trace exports into whole traces.

    A distributed trace's spans are spread across the processes that
    executed it; each node's collector only holds its local fragment.
    This gathers every fragment's spans by trace id, so the reassembled
    trace can be validated as the single causal tree it is.
    """
    stitched: Dict[str, List[dict]] = {}
    for export in exports:
        for trace in export.get("traces", ()):
            stitched.setdefault(trace["trace_id"], []).extend(trace["spans"])
    for spans in stitched.values():
        spans.sort(key=lambda s: _span_order(Span.from_dict(s)))
    return stitched


def stitch_summaries(exports: List[dict]) -> Dict[str, dict]:
    """Merge per-process root summaries by query id (the client's
    launcher and a node's coordinator may each hold part of one)."""
    merged: Dict[str, dict] = {}
    for export in exports:
        for summary in export.get("summaries", ()):
            merged.setdefault(summary["query_id"], {}).update(summary)
    return merged


def validate_trace_dicts(spans: List[dict], cross_clock: bool = False) -> List[str]:
    """:func:`validate_trace` over exported span dicts."""
    return validate_trace(spans_from_dicts(spans), cross_clock=cross_clock)
