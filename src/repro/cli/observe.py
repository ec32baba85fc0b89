"""``trace``, ``metrics`` and ``top``: what a deployment did, read off
its spans and instruments.

``trace`` and ``metrics`` run the paper's query over the Figure 6
(hybrid) or Figure 7 (ad-hoc) deployment, or read a live run's exported
artifacts; ``metrics --scrape`` and ``top`` poll a live run's telemetry
endpoints and share one watch loop.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from ..errors import NetworkError
from ..obs import (
    merge_expositions,
    render_prometheus,
    render_trace,
    spans_from_dicts,
    stitch_trace_exports,
    system_gauges,
    validate_trace,
)
from ..obs.telemetry import (
    ClusterSeries,
    TelemetrySample,
    discover_endpoints,
    parse_exposition,
    sample_from_exposition,
    scrape,
    scrape_json,
)
from ..systems import AdhocSystem, HybridSystem
from ..workloads.paper import PAPER_QUERY, adhoc_scenario, hybrid_scenario

#: seconds between ``top --watch`` frames
TOP_INTERVAL = 2.0
#: rollup window of ``top``'s rates and percentiles
TOP_WINDOW = 60.0


def register(commands) -> None:
    trace = commands.add_parser(
        "trace",
        help="run a traced query and render its distributed span tree",
    )
    trace.add_argument("text", nargs="?", default=None,
                       help="RQL query text (default: the paper's query)")
    trace.add_argument("--arch", choices=("hybrid", "adhoc"), default="hybrid",
                       help="deployment to trace (Figure 6 or Figure 7)")
    trace.add_argument("--json", default=None, metavar="FILE",
                       help="also write the trace export as JSON")
    trace.add_argument("--query", default=None, metavar="ID", dest="query_id",
                       help="render the trace of this query id instead of "
                       "the latest one (with --from: pick it out of the "
                       "export)")
    trace.add_argument("--from", default=None, metavar="FILE", dest="from_file",
                       help="render a trace from an exported JSON file "
                       "(a node's traces.json or a live run's "
                       "merged.traces.json) instead of running a query")
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
        help="run a workload and print Prometheus-style metrics",
    )
    metrics.add_argument("--arch", choices=("hybrid", "adhoc"), default="hybrid",
                         help="deployment to run")
    metrics.add_argument("--queries", type=int, default=5,
                         help="how many times the paper's query is posed")
    metrics.add_argument("--merge", default=None, metavar="DIR",
                         help="instead of running a workload, merge the "
                         "per-process *.metrics.prom dumps under DIR into "
                         "one exposition on stdout")
    metrics.add_argument("--scrape", default=None, metavar="DIR",
                         help="instead of running a workload, scrape the "
                         "live telemetry endpoints discovered under DIR "
                         "and print the merged exposition")
    metrics.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                         help="with --scrape or --merge: re-render every "
                         "SECONDS until interrupted")
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


def _build_paper_system(arch: str):
    """The Figure 6 (hybrid) or Figure 7 (ad-hoc) deployment."""
    if arch == "adhoc":
        return AdhocSystem.from_scenario(adhoc_scenario())
    return HybridSystem.from_scenario(hybrid_scenario())


def _load_trace_export(path: str):
    """``trace_id -> span dicts`` from any of the trace export schemas
    (a node's ``trace-v1`` export or a launcher's ``trace-merge-v1``)."""
    with open(path) as handle:
        export = json.load(handle)
    if export.get("schema") == "repro.obs/trace-merge-v1":
        return stitch_trace_exports(list(export.get("nodes", {}).values()))
    return stitch_trace_exports([export])


def _cmd_trace(args: argparse.Namespace) -> int:
    cross_clock = False
    if args.from_file is not None:
        # operator path: follow one query out of an exported run artifact
        try:
            stitched = _load_trace_export(args.from_file)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.from_file}: {exc}", file=sys.stderr)
            return 2
        if not stitched:
            print("no traces in the export", file=sys.stderr)
            return 1
        trace_id = args.query_id or next(reversed(stitched))
        if trace_id not in stitched:
            print(f"no trace for query {trace_id!r}; export holds: "
                  + ", ".join(sorted(stitched)), file=sys.stderr)
            return 1
        spans = spans_from_dicts(stitched[trace_id])
        # merged live-run spans carry per-process clock epochs
        cross_clock = len({s.peer_id for s in spans}) > 1
    else:
        system = _build_paper_system(args.arch)
        try:
            system.query("P1", args.text or PAPER_QUERY)
        except Exception as exc:
            # the trace of a failed query is still worth rendering
            print(f"query failed: {exc}", file=sys.stderr)
        collector = system.network.trace_collector
        trace_id = args.query_id or collector.latest_trace_id()
        if trace_id is None:
            print("no trace was recorded", file=sys.stderr)
            return 1
        if trace_id not in collector.trace_ids():
            print(f"no trace for query {trace_id!r}; collected: "
                  + ", ".join(collector.trace_ids()), file=sys.stderr)
            return 1
        spans = collector.spans(trace_id)
    print(render_trace(spans, show_events=not args.no_events))
    if args.json:
        with open(args.json, "w") as handle:
            if args.from_file is not None:
                json.dump(
                    {
                        "schema": "repro.obs/trace-v1",
                        "traces": [
                            {
                                "trace_id": trace_id,
                                "spans": stitched[trace_id],
                            }
                        ],
                    },
                    handle,
                    indent=2,
                )
            else:
                handle.write(collector.export_json(trace_id))
        print(f"trace written to {args.json}", file=sys.stderr)
    if args.check:
        problems = validate_trace(spans, cross_clock=cross_clock)
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
    dumps = sorted(Path(directory).glob("*.metrics.prom"))
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
    if args.scrape is not None:
        render = lambda: _render_scraped(args.scrape, args.peer_filter)  # noqa: E731
    elif args.merge is not None:
        render = lambda: _render_merged_dumps(args.merge)  # noqa: E731
    else:
        render = None
    if render is not None:
        if args.watch is not None:
            return _watch_loop(render, args.watch)
        return render()
    if args.watch is not None:
        print("error: --watch needs --scrape DIR or --merge DIR "
              "(nothing moves in a finished in-sim run)", file=sys.stderr)
        return 2
    system = _build_paper_system(args.arch)
    for _ in range(args.queries):
        try:
            system.query("P1", PAPER_QUERY)
        except Exception as exc:
            print(f"query failed: {exc}", file=sys.stderr)
    print(render_prometheus(system.network.metrics, system_gauges(system)), end="")
    return 0


def _render_top(outdir, series) -> int:
    """One ``repro top`` frame: scrape every endpoint, print the table."""
    run = Path(outdir)
    endpoints = discover_endpoints(run)
    if not endpoints:
        print(f"error: no *.endpoint.json under {run} "
              "(is this a live run directory?)", file=sys.stderr)
        return 1
    t = time.time()
    health: dict = {}
    for node_id, (host, port) in sorted(endpoints.items()):
        sample = _scrape_top_sample(node_id, host, port, t, health)
        series.append(node_id, sample)
    rollup = series.rollup(TOP_WINDOW)
    print(f"cluster  peers {rollup['peers_up']}/{rollup['peers']} up  "
          f"availability {rollup['availability']:.0%}  "
          f"q/s {rollup['query_rate']:.3g}  "
          f"inflight {rollup['inflight']:.0f}  "
          f"shed {rollup['shed_rate']:.1%}  "
          f"p99 {_fmt(rollup['p99_latency'])}")
    header = (f"{'NODE':<8} {'ROLE':<6} {'STATUS':<8} {'INFLIGHT':>8} "
              f"{'FINISHED':>8} {'SHED':>6} {'Q/S':>8} {'P99':>8}  NOTES")
    print(header)
    for node_id in sorted(endpoints):
        peer = series.peers[node_id]
        info = health.get(node_id, {})
        roll = peer.rollup(TOP_WINDOW)
        latest = peer.latest()
        notes = []
        quarantined = info.get("quarantined") or []
        if quarantined:
            notes.append("quarantined: " + ",".join(sorted(quarantined)))
        down = info.get("down_peers") or []
        if down:
            notes.append("down: " + ",".join(sorted(down)))
        if info.get("recoveries"):
            notes.append(f"recoveries: {info['recoveries']}")
        finished = latest.counters.get("queries_finished", 0) if latest else 0
        shed = latest.counters.get("queries_shed", 0) if latest else 0
        print(f"{node_id:<8} {str(info.get('role', '?')):<6} "
              f"{str(info.get('status', 'down')):<8} "
              f"{roll['inflight']:>8.0f} {finished:>8.0f} {shed:>6.0f} "
              f"{roll['query_rate']:>8.3g} {_fmt(roll['p99_latency']):>8}"
              f"  {'; '.join(notes)}")
    return 0


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def _scrape_top_sample(node_id, host, port, t, health):
    try:
        parsed = parse_exposition(scrape(host, port, "/metrics"))
        info = scrape_json(host, port, "/healthz")
    except (NetworkError, ValueError):
        health[node_id] = {"status": "down"}
        return TelemetrySample(
            t=t, counters={}, latency_buckets=(), gauges={}, up=False
        )
    health[node_id] = info
    gauges = {"inflight_queries": info.get("inflight_queries", 0)}
    return sample_from_exposition(parsed, t, gauges)


def _cmd_top(args: argparse.Namespace) -> int:
    series = ClusterSeries()
    render = lambda: _render_top(args.outdir, series)  # noqa: E731
    if args.watch:
        return _watch_loop(render, TOP_INTERVAL)
    return render()
