"""A run's scrape loop: cluster rollups, a durable timeline, and crash
diagnostic bundles.

A :class:`ClusterScraper` is the one SLO watchdog of a run.  Live, it
discovers peers from the ``*.endpoint.json`` files each node writes
next to its artifacts and polls every peer's ``/metrics`` +
``/healthz``; in-sim, it reads one in-process
:class:`~repro.obs.telemetry.probe.TelemetryProbe` sample of the whole
system instead.  Either way a round feeds one shared
:class:`~repro.obs.telemetry.sampler.ClusterSeries` and evaluates the
SLO monitor.  Every round is appended — flushed per line — to a
``timeline.jsonl`` the scraper starts afresh, so a SIGKILLed launcher
still leaves the cluster's history on disk up to its last heartbeat.

Timeline record kinds (one JSON object per line):

* ``{"kind": "sample", "peer": ..., "t": ..., "up": ..., ...}`` —
  one per peer per round;
* ``{"kind": "rollup", "t": ..., ...}`` — the cluster rollup;
* ``{"kind": "alert", "state": "firing"|"resolved", ...}`` — SLO
  transitions (schema ``repro.obs/alert-v1``).

:func:`write_diagnostic_bundle` assembles the black box after a
crash: the dead node's durable ``*.events.jsonl`` flight
record, its slow-query dumps, the last scraped health, and the active
alerts — everything an operator needs, in one directory.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...errors import NetworkError
from .flightrec import JsonlSink
from .http import parse_exposition, scrape, scrape_json
from .probe import TelemetryProbe
from .sampler import ClusterSeries, TelemetrySample, sample_from_exposition
from .slo import SLOMonitor, SLORule

#: filename each node writes once its telemetry server is bound
ENDPOINT_SUFFIX = ".endpoint.json"
#: Sliding window (virtual units) the SLO rules evaluate over.
SLO_WINDOW = 120.0


def write_endpoint_file(
    outdir: Path, node_id: str, host: str, port: int, **extra: Any
) -> Path:
    """Publish one node's telemetry address (called by the node itself,
    so discovery survives a dead launcher)."""
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{node_id}{ENDPOINT_SUFFIX}"
    record = {"node_id": node_id, "host": host, "port": port}
    record.update(extra)
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    return path


def discover_endpoints(outdir: Path) -> Dict[str, Tuple[str, int]]:
    """``node_id -> (host, port)`` from the endpoint files in a run dir."""
    endpoints: Dict[str, Tuple[str, int]] = {}
    for path in sorted(Path(outdir).glob(f"*{ENDPOINT_SUFFIX}")):
        try:
            record = json.loads(path.read_text())
            endpoints[record["node_id"]] = (record["host"], int(record["port"]))
        except (ValueError, KeyError):
            continue  # half-written file: the node will rewrite it
    return endpoints


class ClusterScraper:
    """Samples every peer, keeps cluster rollups and watches the SLOs.

    Args:
        outdir: The run directory (endpoint discovery + timeline home);
            ``None`` keeps no timeline.
        clock: Returns the scrape timestamp; the launcher passes a
            scaled-wall-time clock so live timelines read in the same
            units as simulated ones.  Default: the probe's network clock.
        rules: SLO rules for the cluster monitor (stock set if empty).
        window: The monitor's rollup window, for every evaluation.
        timeline: Timeline filename (``None`` disables the file).
        probe: In-sim, the :class:`~repro.obs.telemetry.probe.
            TelemetryProbe` a round samples instead of endpoints (the
            alerts' scope is then ``sim``).
    """

    def __init__(
        self,
        outdir: Optional[Path],
        clock: Optional[Callable[[], float]] = None,
        rules: Tuple[SLORule, ...] = (),
        window: float = SLO_WINDOW,
        timeline: Optional[str] = "timeline.jsonl",
        probe: Optional[TelemetryProbe] = None,
    ):
        self.outdir = Path(outdir) if outdir is not None else None
        self.probe = probe
        self.clock = clock or (lambda: probe.network.now)
        self.series = ClusterSeries()
        self.monitor = SLOMonitor(rules, scope="cluster" if probe is None else "sim",
                                  window=window)
        self.health: Dict[str, Dict[str, Any]] = {}
        self.rounds = 0
        self.scrape_failures = 0
        self.timeline: Optional[JsonlSink] = None
        if timeline is not None and self.outdir is not None:
            self.outdir.mkdir(parents=True, exist_ok=True)
            # a run's timeline is its own: a reused run directory must
            # not replay the previous run's rounds and alerts as this one's
            (self.outdir / timeline).unlink(missing_ok=True)
            self.timeline = JsonlSink(self.outdir / timeline)

    # ------------------------------------------------------------------
    # the scrape loop
    # ------------------------------------------------------------------
    def scrape_peer(self, node_id: str, host: str, port: int, t: float) -> TelemetrySample:
        """One peer, one round; a dead peer yields a ``down`` sample."""
        try:
            parsed = parse_exposition(scrape(host, port, "/metrics"))
            health = scrape_json(host, port, "/healthz")
        except (NetworkError, ValueError):
            self.scrape_failures += 1
            down = TelemetrySample(
                t=t, counters={}, latency_buckets=(), gauges={}, up=False
            )
            self.health[node_id] = {"status": "down", "node_id": node_id, "t": t}
            return down
        self.health[node_id] = health
        gauges = {"inflight_queries": health.get("inflight_queries", 0)}
        return sample_from_exposition(parsed, t, gauges)

    def scrape_once(self) -> Dict[str, Any]:
        """One full round: every peer's sample, the cluster rollup and
        the SLO evaluation, each appended to the timeline (a ``sample``
        record per peer, the ``rollup``, any alert transitions).
        Returns the rollup, its transitions under ``"alerts"``."""
        t = self.clock()
        if self.probe is not None:
            samples = {self.probe.node_id: self.probe.sample()}
        else:
            samples = {
                node_id: self.scrape_peer(node_id, host, port, t)
                for node_id, (host, port)
                in sorted(discover_endpoints(self.outdir).items())
            }
        self.rounds += 1
        records = []
        for node_id, sample in samples.items():
            self.series.append(node_id, sample)
            records.append({
                "kind": "sample",
                "t": t,
                "peer": node_id,
                "up": sample.up,
                "counters": sample.counters,
                "inflight": sample.gauges.get("inflight_queries", 0),
            })
        rollup = self.series.rollup(self.monitor.window)
        rollup["t"] = t
        records.append({"kind": "rollup", **rollup})
        alerts = self.monitor.evaluate(t, rollup)
        if self.timeline is not None:
            for record in (*records, *alerts):
                self.timeline(record)
        rollup["alerts"] = alerts
        return rollup

    def close(self) -> None:
        if self.timeline is not None:
            self.timeline.close()
            self.timeline = None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """A report-ready digest: final rollup, alert history, health."""
        return {
            "rounds": self.rounds,
            "scrape_failures": self.scrape_failures,
            "rollup": (
                self.series.rollup(self.monitor.window) if self.series.peers else None
            ),
            "alerts": list(self.monitor.history),
            "active_alerts": self.monitor.active(),
            "health": dict(self.health),
        }


def read_timeline(path: Path) -> List[Dict[str, Any]]:
    """Parse a ``timeline.jsonl``, skipping a torn final line (the one
    record a SIGKILL may have cut mid-write)."""
    records: List[Dict[str, Any]] = []
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        return records
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            continue
    return records


def write_diagnostic_bundle(
    outdir: Path,
    name: str,
    reason: str,
    node_ids: Tuple[str, ...] = (),
    scraper: Optional[ClusterScraper] = None,
) -> Path:
    """Assemble a crash diagnostic bundle directory.

    Collects, per involved node: its durable flight-recorder
    ``<node>.events.jsonl``, any ``<node>.slow.*.json`` slow-query
    dumps, and its endpoint file; plus a ``manifest.json`` with the
    reason, last known health and the currently active alerts.
    Returns the bundle directory.
    """
    outdir = Path(outdir)
    bundle = outdir / "bundles" / name
    bundle.mkdir(parents=True, exist_ok=True)
    copied: List[str] = []
    patterns = []
    for node_id in node_ids or ("*",):
        patterns += [
            f"{node_id}.events.jsonl",
            f"{node_id}.slow.*.json",
            f"{node_id}{ENDPOINT_SUFFIX}",
        ]
    for pattern in patterns:
        for source in sorted(outdir.glob(pattern)):
            shutil.copy2(source, bundle / source.name)
            copied.append(source.name)
    manifest: Dict[str, Any] = {
        "schema": "repro.obs/bundle-v1",
        "reason": reason,
        "nodes": list(node_ids),
        "files": copied,
    }
    if scraper is not None:
        manifest["health"] = {
            node: scraper.health.get(node) for node in node_ids if node in scraper.health
        }
        manifest["active_alerts"] = scraper.monitor.active()
    (bundle / "manifest.json").write_text(
        json.dumps(manifest, indent=2, default=str)
    )
    return bundle
