"""Observability: distributed tracing, histogram metrics, profiling.

The ``repro.obs`` subsystem gives the repro per-stage, per-peer
visibility into where a query spends its (virtual) life — routing
annotation, plan compilation, optimiser rewrites, channel execution,
run-time adaptation — the breakdowns the paper argues about in
Sections 2.3–2.5 but the flat counter set could not show.

Three pieces:

* **Tracing** (:mod:`span`, :mod:`tracer`, :mod:`collect`) —
  lightweight spans on simulator virtual time, stitched into one
  causal tree per query by propagating a :class:`TraceContext` inside
  network messages; collected by a bounded :class:`TraceCollector`.
  Sampling is decided at a query's root (one in
  :data:`~repro.obs.tracer.SAMPLE_EVERY`, plus marked queries): an
  unsampled query's hops time their stages with a
  :class:`StageTimer` and build no spans.
* **Histograms** (:mod:`repro.metrics.histogram`, beside the instrument
  table; read here, never the reverse) — HDR-style bucketed percentiles
  replacing mean-only latency, kept per stage and per message kind.
* **Surfaces** (:mod:`render`, :mod:`exposition`, :mod:`gauges`) —
  ASCII span trees/timelines, Prometheus-style text exposition, and
  per-peer gauge snapshots.

Everything defaults on; disabling observability swaps in
:data:`NULL_TRACER`, whose spans are a shared no-op singleton, so the
seed's behaviour and bench numbers are preserved.
"""

from .collect import (
    TraceCollector,
    span_tree,
    spans_from_dicts,
    stitch_summaries,
    stitch_trace_exports,
    validate_trace,
    validate_trace_dicts,
)
from .gauges import peer_gauges, system_gauges
from .render import render_trace
from .span import Span, TraceContext
from .tracer import NULL_SPAN, NULL_TRACER, NullTracer, StageTimer, Tracer
from .exposition import add_const_labels, merge_expositions, render_prometheus

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "StageTimer",
    "TraceCollector",
    "TraceContext",
    "Tracer",
    "peer_gauges",
    "add_const_labels",
    "merge_expositions",
    "render_prometheus",
    "render_trace",
    "span_tree",
    "spans_from_dicts",
    "stitch_summaries",
    "stitch_trace_exports",
    "system_gauges",
    "validate_trace",
    "validate_trace_dicts",
]
