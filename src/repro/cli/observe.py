"""``trace``, ``metrics``, ``top`` and ``alerts``: what a deployment
did, read off its spans, instruments and SLO timeline.

None of them runs anything: each reads the run directory a ``run
--outdir DIR`` leaves, in the sim or ``--live`` alike.  ``trace`` renders
one query's span tree out of a trace export, ``metrics`` merges the
per-process metric dumps, ``alerts`` replays the timeline's alert
transitions; ``metrics --scrape`` and ``top`` poll a live run's
telemetry endpoints and share one watch loop.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from ..deploy.node import process_dumps
from ..errors import NetworkError
from ..obs import (
    merge_expositions,
    render_trace,
    spans_from_dicts,
    stitch_summaries,
    stitch_trace_exports,
    validate_trace,
)
from ..obs.telemetry import (
    ClusterScraper,
    discover_endpoints,
    read_timeline,
    render_alert,
    scrape,
)
from ..obs.tracer import SAMPLE_EVERY, sampled

#: seconds between ``top --watch`` frames
TOP_INTERVAL = 2.0
#: rollup window of ``top``'s rates and percentiles
TOP_WINDOW = 60.0


def register(commands) -> None:
    trace = commands.add_parser(
        "trace",
        help="render one query's distributed span tree from a trace export",
    )
    trace.add_argument("path",
                       help="a run's merged.traces.json or one process's "
                       "trace.json")
    trace.add_argument("--query", default=None, metavar="ID", dest="query_id",
                       help="render the trace of this query id instead of "
                       "the latest one")
    trace.add_argument("--no-events", action="store_true",
                       help="hide span events (retries, packets)")
    trace.add_argument(
        "--check",
        action="store_true",
        help="validate the trace (single root, no context gaps, "
        "causal starts, all spans finished); non-zero exit on problems",
    )
    trace.set_defaults(run=_cmd_trace)

    metrics = commands.add_parser(
        "metrics",
        help="print a run's Prometheus-style metrics, every process's "
        "dump merged",
    )
    metrics.add_argument("outdir",
                         help="run directory: merge its per-process "
                         "*.metrics.prom dumps into one exposition")
    metrics.add_argument("--scrape", action="store_true",
                         help="scrape the live telemetry endpoints "
                         "discovered under the directory instead")
    metrics.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                         help="re-render every SECONDS until interrupted")
    metrics.add_argument("--peer-filter", default=None, metavar="NODE",
                         help="with --scrape: only this peer's endpoint")
    metrics.set_defaults(run=_cmd_metrics)

    top = commands.add_parser(
        "top",
        help="live cluster view: scrape every peer's telemetry endpoint "
        "and render per-peer health, inflight and throughput",
    )
    top.add_argument("outdir", nargs="?", default="live-run",
                     help="run directory holding *.endpoint.json files "
                     "(default live-run)")
    top.add_argument("--watch", action="store_true",
                     help=f"keep re-rendering every {TOP_INTERVAL:g} s "
                     "instead of scraping once")
    top.set_defaults(run=_cmd_top)

    alerts = commands.add_parser(
        "alerts",
        help="replay a run's SLO alert timeline",
    )
    alerts.add_argument("outdir",
                        help="run directory with a timeline.jsonl to replay")
    alerts.add_argument("--fail-on-active", action="store_true",
                        help="exit non-zero if any alert is still firing "
                        "at the end")
    alerts.set_defaults(run=_cmd_alerts)


def _load_trace_export(path: str):
    """``(trace_id -> span dicts, query_id -> root summary, processes)``
    from either trace export schema: one process's ``trace-v1`` export,
    or a run's ``trace-merge-v1`` holding every process's."""
    with open(path) as handle:
        export = json.load(handle)
    if export.get("schema") == "repro.obs/trace-merge-v1":
        nodes = list(export.get("nodes", {}).values())
    else:
        nodes = [export]
    return stitch_trace_exports(nodes), stitch_summaries(nodes), len(nodes)


def _not_sampled(query_id: str, summary: dict) -> str:
    """An unsampled query that ended badly: its root summary."""
    fields = " ".join(
        f"{key}={value}" for key, value in summary.items()
        if key != "query_id" and value is not None
    )
    return (f"query {query_id} not sampled (one query in {SAMPLE_EVERY} is "
            f"traced); root summary: {fields}")


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        stitched, summaries, processes = _load_trace_export(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    trace_id = args.query_id
    if trace_id not in stitched and trace_id in summaries:
        print(_not_sampled(trace_id, summaries[trace_id]))
        return 0
    if not stitched:
        print("no traces in the export", file=sys.stderr)
        return 1
    trace_id = trace_id or next(reversed(stitched))
    if trace_id not in stitched:
        print(f"no trace for query {trace_id!r}; export holds: "
              + ", ".join(sorted(stitched)), file=sys.stderr)
        if not sampled(trace_id):
            print(f"({trace_id} is not one of the sampled queries, one in "
                  f"{SAMPLE_EVERY}, and left no summary: it ended ok, or "
                  "is not in this run)", file=sys.stderr)
        return 1
    spans = spans_from_dicts(stitched[trace_id])
    print(render_trace(spans, show_events=not args.no_events))
    if args.check:
        # spans exported by different processes carry different clock
        # epochs; one process's spans are held to one clock
        problems = validate_trace(spans, cross_clock=processes > 1)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        print(
            f"trace OK: single root, {len(spans)} spans, "
            f"{len({s.peer_id for s in spans})} peers, no gaps",
            file=sys.stderr,
        )
    return 0


def _watch_loop(render, interval: float) -> int:
    """Re-invoke ``render`` every ``interval`` seconds (clearing the
    screen between rounds) until Ctrl-C."""
    try:
        render()
        while True:
            time.sleep(interval)
            print("\033[2J\033[H", end="")
            render()
    except KeyboardInterrupt:
        return 0


def _render_merged_dumps(directory: str) -> int:
    dumps = process_dumps(directory, ".metrics.prom")
    if not dumps:
        print(f"error: no *.metrics.prom files under {directory}",
              file=sys.stderr)
        return 1
    print(merge_expositions([p.read_text() for p in dumps]), end="")
    print(f"# merged {len(dumps)} process dumps", file=sys.stderr)
    return 0


def _render_scraped(directory: str, peer_filter) -> int:
    endpoints = discover_endpoints(Path(directory))
    if peer_filter is not None:
        endpoints = {k: v for k, v in endpoints.items() if k == peer_filter}
    if not endpoints:
        print(f"error: no matching *.endpoint.json under {directory}",
              file=sys.stderr)
        return 1
    texts, down = [], []
    for node_id, (host, port) in sorted(endpoints.items()):
        try:
            texts.append(scrape(host, port, "/metrics"))
        except NetworkError:
            down.append(node_id)
    if not texts:
        print(f"error: no live endpoint among {sorted(endpoints)}",
              file=sys.stderr)
        return 1
    print(merge_expositions(texts), end="")
    note = f"# scraped {len(texts)}/{len(endpoints)} endpoints"
    if down:
        note += f" (down: {', '.join(down)})"
    print(note, file=sys.stderr)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.scrape:
        render = lambda: _render_scraped(args.outdir, args.peer_filter)  # noqa: E731
    else:
        render = lambda: _render_merged_dumps(args.outdir)  # noqa: E731
    if args.watch is not None:
        return _watch_loop(render, args.watch)
    return render()


def _render_top(scraper) -> int:
    """One ``repro top`` frame: scrape every endpoint, print the table."""
    rollup = scraper.scrape_once()
    series = scraper.series
    if not series.peers:
        print(f"error: no *.endpoint.json under {scraper.outdir} "
              "(is this a live run directory?)", file=sys.stderr)
        return 1
    print(f"cluster  peers {rollup['peers_up']}/{rollup['peers']} up  "
          f"availability {rollup['availability']:.0%}  "
          f"q/s {rollup['query_rate']:.3g}  "
          f"inflight {rollup['inflight']:.0f}  "
          f"shed {rollup['shed_rate']:.1%}  "
          f"p99 {_fmt(rollup['p99_latency'])}")
    header = (f"{'NODE':<8} {'ROLE':<6} {'STATUS':<8} {'INFLIGHT':>8} "
              f"{'FINISHED':>8} {'SHED':>6} {'Q/S':>8} {'P99':>8}  NOTES")
    print(header)
    for node_id in sorted(series.peers):
        info = scraper.health.get(node_id, {})
        roll = series.rollup(TOP_WINDOW, peers=[node_id])
        counters = series.peers[node_id].latest().counters
        notes = []
        quarantined = info.get("quarantined") or []
        if quarantined:
            notes.append("quarantined: " + ",".join(sorted(quarantined)))
        down = info.get("down_peers") or []
        if down:
            notes.append("down: " + ",".join(sorted(down)))
        if info.get("recoveries"):
            notes.append(f"recoveries: {info['recoveries']}")
        finished = counters.get("queries_finished", 0)
        shed = counters.get("queries_shed", 0)
        print(f"{node_id:<8} {str(info.get('role', '?')):<6} "
              f"{str(info.get('status', 'down')):<8} "
              f"{roll['inflight']:>8.0f} {finished:>8.0f} {shed:>6.0f} "
              f"{roll['query_rate']:>8.3g} {_fmt(roll['p99_latency']):>8}"
              f"  {'; '.join(notes)}")
    return 0


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def _cmd_top(args: argparse.Namespace) -> int:
    scraper = ClusterScraper(
        args.outdir, clock=time.time, window=TOP_WINDOW, timeline=None
    )
    render = lambda: _render_top(scraper)  # noqa: E731
    if args.watch:
        return _watch_loop(render, TOP_INTERVAL)
    return render()


def _cmd_alerts(args: argparse.Namespace) -> int:
    run = Path(args.outdir)
    records = read_timeline(run / "timeline.jsonl")
    if not records:
        print(f"error: no timeline.jsonl under {run}", file=sys.stderr)
        return 1
    rounds = sum(1 for r in records if r.get("kind") == "rollup")
    alerts = [r for r in records if r.get("kind") == "alert"]
    active: dict = {}
    for event in alerts:
        key = (event.get("scope"), event.get("rule"))
        if event.get("state") == "firing":
            active[key] = event
        else:
            active.pop(key, None)
        print(render_alert(event))
    if not alerts:
        print("no alert transitions recorded")
    print(f"# {rounds} scrape rounds, {len(alerts)} transitions, "
          f"{len(active)} still firing", file=sys.stderr)
    for (scope, rule), event in sorted(active.items()):
        print(f"#   still firing: {rule} ({scope})", file=sys.stderr)
    if args.fail_on_active and active:
        return 1
    return 0
