"""Live cluster telemetry: the telemetry series and its rollup, scrape
endpoints, SLO watchdogs and the crash flight recorder.

Layered on the PR-3 observability core (:mod:`repro.obs`), this
package adds the *operational* half of observability:

* :mod:`sampler` — one :class:`TelemetrySample` shape whether read
  in-process off a :class:`MetricSet` or parsed from a scraped text
  exposition, one bounded ring of them per peer
  (:class:`ClusterSeries`), and the one rollup a run's scraper (sim
  or live) and ``repro top`` read: Prometheus-style
  reset-aware ``rate()`` / ``increase()`` and windowed percentiles from
  cumulative histogram-bucket deltas;
* :mod:`slo` — declarative SLO rules with debounce, firing/resolved
  transition events (``repro.obs/alert-v1``);
* :mod:`flightrec` — the bounded structured-event black box
  (``repro.obs/event-v1``), durable JSONL sinks, slow-query log;
* :mod:`probe` — in-sim snapshot API mirroring the live endpoints;
* :mod:`http` — the per-peer ``/metrics`` / ``/healthz`` / ``/tracez``
  server on the node's event loop, plus the scrape client and
  exposition parser;
* :mod:`scraper` — the SLO watchdog of a run (endpoints live, a probe
  in-sim), durable ``timeline.jsonl`` and crash diagnostic bundles.

The PR-3 invariants carry over: everything here is pull-based and
uncharged, so telemetry perturbs no simulated quantity and a
telemetry-enabled run stays bit-identical to a bare one.
"""

from .flightrec import FlightRecorder, JsonlSink, SlowQueryLog
from .http import TelemetryServer, parse_exposition, scrape, scrape_json
from .probe import TelemetryProbe
from .sampler import (
    ClusterSeries,
    TelemetrySample,
    sample_from_exposition,
    sample_metricset,
)
from .scraper import (
    ClusterScraper,
    discover_endpoints,
    read_timeline,
    write_diagnostic_bundle,
    write_endpoint_file,
)
from .slo import SLOMonitor, SLORule, default_slo_rules, render_alert

__all__ = [
    "ClusterScraper",
    "ClusterSeries",
    "FlightRecorder",
    "JsonlSink",
    "SLOMonitor",
    "SLORule",
    "SlowQueryLog",
    "TelemetryProbe",
    "TelemetrySample",
    "TelemetryServer",
    "default_slo_rules",
    "discover_endpoints",
    "parse_exposition",
    "read_timeline",
    "render_alert",
    "sample_from_exposition",
    "sample_metricset",
    "scrape",
    "scrape_json",
    "write_diagnostic_bundle",
    "write_endpoint_file",
]
