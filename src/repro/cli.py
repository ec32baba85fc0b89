"""Command-line interface.

Three subcommands::

    python -m repro demo
        Run the paper's running example end to end and print each
        middleware stage (pattern, annotation, plans, answer).

    python -m repro figures
        Print the exact artefacts of Figures 2, 3, 4 and 7 (annotation
        table and plan strings) for eyeball comparison with the paper.

    python -m repro query --schema schema.nt --namespace URI \\
        --peer NAME=base.nt [--peer ...] --via NAME "SELECT ..."
        Load a community schema and peer bases from N-Triples files,
        deploy them as a hybrid SON and evaluate the query.

    python -m repro chaos [--loss 0.1] [--queries 8] [--seed 7]
        Run the paper's running example as a query stream over an
        adverse network (message loss, duplication, jitter, a peer
        crash/recover cycle) with the resilience layer on, and print
        every query's fate plus the retry/suspicion counters.

    python -m repro trace [--arch hybrid|adhoc] [--json FILE] [--check]
        Run the paper's query over the Figure 6 (hybrid) or Figure 7
        (ad-hoc) deployment and render the resulting distributed trace
        as an ASCII span tree with per-stage durations.

    python -m repro metrics [--arch hybrid|adhoc] [--queries N]
        Run a small query workload and dump every counter, histogram
        (p50/p90/p99) and per-peer gauge in Prometheus text exposition
        format.

    python -m repro serve [--arrival-rate 0.2] [--clients 4] ...
        Drive a concurrent multi-query workload (open-loop Poisson or
        closed-loop think-time clients) against a synthetic deployment
        with admission control and fair scheduling, and print the
        serving report (throughput, latency percentiles, sheds).

    python -m repro launch --peers 3 --super-peers 1 [--kill P2] ...
        Deploy a live localhost cluster (one OS process per peer over
        the TCP transport), drive a seeded query workload against it,
        optionally SIGTERM a peer mid-run, and merge every process's
        metrics/trace exports into run artifacts.

    python -m repro peer --node-id P1 --seed HOST:PORT --outdir DIR ...
        One node process of a live deployment (spawned by ``launch``;
        usable standalone for hand-built clusters).

    python -m repro metrics --merge DIR
        Merge the per-process ``*.metrics.prom`` dumps of a live run
        into one exposition (samples stay distinguishable via their
        ``peer_id``/``pid``/``transport`` const labels).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from .config import DEFAULT_CONFIG, PeerConfig
from .core import build_plan, optimize, route_query
from .rdf import load_graph, load_schema
from .systems import HybridSystem
from .workloads.paper import (
    PAPER_QUERY,
    adhoc_scenario,
    paper_active_schemas,
    paper_peer_bases,
    paper_query_pattern,
    paper_schema,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SQPeer: semantic query routing and processing for P2P RDF/S bases",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="run the paper's running example")
    commands.add_parser("figures", help="print the Figure 2/3/4/7 artefacts")

    query = commands.add_parser("query", help="query N-Triples peer bases")
    query.add_argument("--schema", required=True, help="schema N-Triples file")
    query.add_argument("--namespace", required=True, help="schema namespace URI")
    query.add_argument(
        "--peer",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="peer base as NAME=path.nt (repeatable)",
    )
    query.add_argument("--via", required=True, help="coordinating peer name")
    query.add_argument("--limit", type=int, default=None, help="Top-N bound")
    query.add_argument("--max-peers", type=int, default=None,
                       help="broadcast bound per path pattern")
    query.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the routing/plan caches and request coalescing "
        "(cold per-query routing, as in the paper)",
    )
    query.add_argument(
        "--batch-size",
        type=int,
        default=256,
        metavar="N",
        help="bindings per shipped data packet (default 256)",
    )
    query.add_argument(
        "--cost-based",
        action="store_true",
        help="statistics-driven planning: peers advertise per-predicate "
        "statistics, joins are ordered by estimated cardinality and the "
        "cost model places operators (off: the rule-based path)",
    )
    query.add_argument("text", help="RQL query text")

    chaos = commands.add_parser(
        "chaos",
        help="run the running example under an adverse network "
        "(loss, duplication, jitter, crash/recovery) with resilience on",
    )
    chaos.add_argument("--seed", type=int, default=7,
                       help="seed for the network and the fault plan")
    chaos.add_argument("--loss", type=float, default=0.10,
                       help="message drop probability")
    chaos.add_argument("--duplicate", type=float, default=0.05,
                       help="message duplication probability")
    chaos.add_argument("--queries", type=int, default=8,
                       help="how many times the running query is posed")
    chaos.add_argument(
        "--crash",
        default="P2@6:600",
        metavar="PEER@AT[:RECOVER]",
        help="crash schedule (empty string disables the crash)",
    )
    chaos.add_argument("--trace-export", default=None, metavar="FILE",
                       help="write every retained trace as JSON")
    chaos.add_argument("--metrics-export", default=None, metavar="FILE",
                       help="write the final Prometheus exposition")

    trace = commands.add_parser(
        "trace",
        help="run a traced query and render its distributed span tree",
    )
    trace.add_argument("text", nargs="?", default=None,
                       help="RQL query text (default: the paper's query)")
    trace.add_argument("--arch", choices=("hybrid", "adhoc"), default="hybrid",
                       help="deployment to trace (Figure 6 or Figure 7)")
    trace.add_argument("--seed", type=int, default=0, help="network seed")
    trace.add_argument("--via", default="P1", help="coordinating peer")
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

    metrics = commands.add_parser(
        "metrics",
        help="run a workload and print Prometheus-style metrics",
    )
    metrics.add_argument("--arch", choices=("hybrid", "adhoc"), default="hybrid",
                         help="deployment to run")
    metrics.add_argument("--seed", type=int, default=0, help="network seed")
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
    metrics.add_argument("--iterations", type=int, default=None, metavar="N",
                         help="with --watch: stop after N renders")
    metrics.add_argument("--peer-filter", default=None, metavar="NODE",
                         help="with --scrape: only this peer's endpoint")

    serve = commands.add_parser(
        "serve",
        help="drive a concurrent query workload against a synthetic "
        "deployment and print the serving report",
    )
    serve.add_argument("--arch", choices=("hybrid", "adhoc"), default="hybrid",
                       help="deployment architecture")
    serve.add_argument("--mode", choices=("open", "closed"), default="open",
                       help="open-loop Poisson arrivals or closed-loop "
                       "think-time clients")
    serve.add_argument("--count", type=int, default=24,
                       help="logical queries to offer")
    serve.add_argument("--arrival-rate", type=float, default=0.2,
                       help="open loop: mean arrivals per unit of virtual time")
    serve.add_argument("--burst", type=int, default=1,
                       help="open loop: submissions per arrival instant")
    serve.add_argument("--clients", type=int, default=4,
                       help="driver-owned client peers")
    serve.add_argument("--think-time", type=float, default=5.0,
                       help="closed loop: virtual time between answer and "
                       "next submission")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for the deployment and the arrival process")
    serve.add_argument("--peers", type=int, default=3,
                       help="database peers in the synthetic deployment")
    serve.add_argument("--max-concurrent", type=int, default=None,
                       metavar="N",
                       help="enable admission control: coordinations held "
                       "at once per peer before queueing")
    serve.add_argument("--max-queued", type=int, default=16,
                       help="admission queue bound before shedding")
    serve.add_argument("--retry-after", type=float, default=25.0,
                       help="back-off hint sent with a shed")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-query deadline (virtual time); expired "
                       "queries are aborted via a plan discard")
    serve.add_argument("--fair-quantum", type=float, default=None,
                       metavar="Q",
                       help="enable fair per-query scheduling with this "
                       "round-robin quantum")
    serve.add_argument("--no-resubmit", action="store_true",
                       help="record shed queries as refused instead of "
                       "re-offering them after their back-off")
    serve.add_argument("--max-events", type=int, default=2_000_000,
                       help="simulator event budget for the run")
    serve.add_argument("--updates", action="store_true",
                       help="inject a seeded live update stream mid-run "
                       "(triple inserts/deletes + view redefinitions); "
                       "peers patch their bases and push advertisement "
                       "deltas while queries are being served")
    serve.add_argument("--update-rate", type=float, default=0.08,
                       help="with --updates: fraction of each base "
                       "mutated per revision")
    serve.add_argument("--update-revisions", type=int, default=3,
                       help="with --updates: how many revisions are "
                       "spread over the run")
    serve.add_argument("--topk", type=int, default=None, metavar="K",
                       help="pose every query as top-K (LIMIT K) with "
                       "any-k early termination: once K answers are "
                       "stable the coordinator discards the remaining "
                       "channels the ubQL way")

    from .deploy.node import add_spec_arguments

    peer = commands.add_parser(
        "peer",
        help="one node process of a live deployment (spawned by launch)",
    )
    peer.add_argument("--node-id", required=True,
                      help="protocol peer hosted by this process (P1, SP1, ...)")
    peer.add_argument("--seed", required=True, metavar="HOST:PORT",
                      help="address of the seed process (the launcher)")
    peer.add_argument("--host", default="127.0.0.1",
                      help="interface to listen on")
    peer.add_argument("--port", type=int, default=0,
                      help="listening port (0 picks a free one)")
    peer.add_argument("--outdir", required=True,
                      help="directory for metrics/trace exports")
    peer.add_argument("--lifetime", type=float, default=30_000.0,
                      help="virtual-time backstop before self-exit")
    peer.add_argument("--statedir", default=None, metavar="DIR",
                      help="durable state root (snapshot + membership log "
                      "under DIR/<node-id>); a restarted process recovers "
                      "from it")
    peer.add_argument("--no-telemetry", action="store_true",
                      help="disable the /metrics /healthz /tracez "
                      "endpoints and the durable flight-recorder sink")
    peer.add_argument("--telemetry-port", type=int, default=0,
                      help="telemetry endpoint port (0 picks a free one)")
    peer.add_argument("--slow-query-threshold", type=float, default=500.0,
                      help="virtual-time latency above which a query's "
                      "full trace is dumped to the slow-query log")
    add_spec_arguments(peer)

    launch = commands.add_parser(
        "launch",
        help="deploy a live localhost cluster and drive a workload",
    )
    launch.add_argument("--host", default="127.0.0.1",
                        help="interface the cluster binds to")
    launch.add_argument("--outdir", default="live-run",
                        help="directory for per-process and merged artifacts")
    launch.add_argument("--count", type=int, default=6,
                        help="queries to drive against the cluster")
    launch.add_argument("--kill", default=None, metavar="PEER",
                        help="kill this peer halfway through the run "
                        "(requires --resilient for partial answers)")
    launch.add_argument("--kill-signal", choices=("term", "kill"),
                        default="term",
                        help="signal for --kill: term is graceful, kill is "
                        "an abrupt crash (no snapshot, no goodbye)")
    launch.add_argument("--restart-after", type=float, default=None,
                        metavar="SECONDS",
                        help="restart the killed peer this many seconds "
                        "after the kill (the live twin of a CrashEvent "
                        "with recover_at)")
    launch.add_argument("--supervise", action="store_true",
                        help="restart crashed peer processes automatically "
                        "with exponential backoff and a restart-storm "
                        "circuit breaker")
    launch.add_argument("--join", default=None, metavar="PEER",
                        help="spawn this late joiner three quarters into "
                        "the run (name it within --joiners)")
    launch.add_argument("--statedir", default=None, metavar="DIR",
                        help="durable state root passed to every node "
                        "(defaults to OUTDIR/state when --supervise or "
                        "--restart-after is given)")
    launch.add_argument("--no-telemetry", action="store_true",
                        help="disable mid-run scraping, timeline.jsonl "
                        "and the SLO watchdogs")
    launch.add_argument("--scrape-every", type=int, default=2,
                        help="scrape every N driven queries (default 2)")
    launch.add_argument("--slo-window", type=float, default=120.0,
                        help="sliding window (virtual units) the SLO "
                        "rules evaluate over")
    launch.add_argument("--shed-alert", type=float, default=0.25,
                        help="shed-rate fraction above which the "
                        "shed-rate SLO fires")
    launch.add_argument("--updates", action="store_true",
                        help="inject a seeded live update stream a third "
                        "of the way into the run: triple inserts/deletes "
                        "and view redefinitions applied by the live "
                        "peers, advertisement deltas flowing to the "
                        "super-peers over the real transport")
    launch.add_argument("--update-rate", type=float, default=0.08,
                        help="with --updates: fraction of each base "
                        "mutated by the injected revision")
    launch.add_argument("--topk", type=int, default=None, metavar="K",
                        help="pose one extra LIMIT-K query near the end "
                        "of the run with any-k early termination "
                        "(enables the live data plane on every node)")
    add_spec_arguments(launch)

    top = commands.add_parser(
        "top",
        help="live cluster view: scrape every peer's telemetry endpoint "
        "and render per-peer health, inflight and throughput",
    )
    top.add_argument("outdir", nargs="?", default="live-run",
                     help="run directory holding *.endpoint.json files "
                     "(default live-run)")
    top.add_argument("--watch", action="store_true",
                     help="keep re-rendering instead of scraping once")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between scrapes with --watch (default 2)")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="with --watch: stop after N rounds")
    top.add_argument("--window", type=float, default=60.0,
                     help="rollup window for rates/percentiles (default 60)")

    alerts = commands.add_parser(
        "alerts",
        help="replay a run's SLO alert timeline, or demo the watchdogs "
        "against an in-sim overload",
    )
    alerts.add_argument("outdir", nargs="?", default=None,
                        help="run directory with a timeline.jsonl to replay")
    alerts.add_argument("--demo", action="store_true",
                        help="drive an overloaded in-sim deployment and "
                        "print the alerts the SLO watchdogs fire")
    alerts.add_argument("--seed", type=int, default=0,
                        help="demo: deployment/workload seed")
    alerts.add_argument("--shed-alert", type=float, default=0.05,
                        help="demo: shed-rate fraction that trips the "
                        "shed-rate rule (default 0.05)")
    alerts.add_argument("--window", type=float, default=120.0,
                        help="sliding window the rules evaluate over")
    alerts.add_argument("--fail-on-active", action="store_true",
                        help="exit non-zero if any alert is still firing "
                        "at the end")
    return parser


def _cmd_demo() -> int:
    schema = paper_schema()
    print("query:", PAPER_QUERY)
    pattern = paper_query_pattern(schema)
    print("pattern:", pattern)
    annotated = route_query(pattern, paper_active_schemas(schema).values(), schema)
    print("annotated:", annotated)
    plan = build_plan(annotated)
    print("plan:", plan.render())
    print("optimized:", optimize(plan).result.render())
    system = HybridSystem(schema)
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    table = system.query("P1", PAPER_QUERY)
    print(f"answer ({len(table)} rows):")
    for binding in table.bindings():
        print("  ", binding["X"].local_name, "->", binding["Y"].local_name)
    return 0


def _cmd_figures() -> int:
    schema = paper_schema()
    pattern = paper_query_pattern(schema)
    annotated = route_query(pattern, paper_active_schemas(schema).values(), schema)
    print("Figure 2 (annotated query pattern):")
    print("  ", annotated)
    plan = build_plan(annotated)
    print("Figure 3 (query plan):")
    print("  ", plan.render())
    trace = optimize(plan)
    print("Figure 4 (optimisation):")
    for rule, step in trace:
        print(f"   {rule}: {step.render()}")
    scenario = adhoc_scenario()
    from .rvl import ActiveSchema

    neighbour_ads = [
        ActiveSchema.from_base(scenario.bases[p], schema, p)
        for p in scenario.neighbours["P1"]
    ]
    partial = optimize(
        build_plan(route_query(pattern, neighbour_ads, schema))
    ).result
    print("Figure 7 (P1's partial plan):")
    print("  ", partial.render())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema, args.namespace)
    if args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2
    system = HybridSystem(
        schema,
        config=PeerConfig(
            cache_enabled=not args.no_cache,
            batch_size=args.batch_size,
            cost_based=args.cost_based,
        ),
    )
    system.add_super_peer("SP")
    names = []
    for spec in args.peer:
        name, _, path = spec.partition("=")
        if not path:
            print(f"error: --peer expects NAME=FILE, got {spec!r}", file=sys.stderr)
            return 2
        system.add_peer(name, load_graph(path), "SP")
        names.append(name)
    if args.via not in names:
        print(f"error: --via {args.via!r} is not among the peers", file=sys.stderr)
        return 2
    try:
        table = system.query(
            args.via, args.text, max_peers=args.max_peers, limit=args.limit
        )
    except Exception as exc:  # surfaced to the shell, not a traceback
        print(f"query failed: {exc}", file=sys.stderr)
        return 1
    print("\t".join(table.columns))
    for row in table.rows:
        print("\t".join(term.n3() for term in row))
    print(f"# {len(table)} rows", file=sys.stderr)
    return 0


def _parse_crash(spec: str):
    """``PEER@AT[:RECOVER]`` → :class:`CrashEvent`, or ``None``."""
    from .resilience import CrashEvent

    if not spec:
        return None
    peer, _, times = spec.partition("@")
    if not times:
        raise ValueError(f"--crash expects PEER@AT[:RECOVER], got {spec!r}")
    at, _, recover = times.partition(":")
    return CrashEvent(
        at=float(at), peer_id=peer, recover_at=float(recover) if recover else None
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .resilience import FaultPlan, ResilienceConfig, run_chaos

    try:
        crash = _parse_crash(args.crash)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    schema = paper_schema()
    system = HybridSystem(schema, seed=args.seed)
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    system.run()
    system.enable_resilience(ResilienceConfig.default(args.seed))
    plan = FaultPlan(
        seed=args.seed + 1,
        drop_rate=args.loss,
        duplicate_rate=args.duplicate,
        jitter=0.5,
        spike_rate=0.05,
        spike_latency=8.0,
        crashes=(crash,) if crash is not None else (),
    )
    chaos = run_chaos(system, [("P1", PAPER_QUERY)] * args.queries, plan)
    if args.trace_export and system.network.trace_collector is not None:
        with open(args.trace_export, "w") as handle:
            handle.write(system.network.trace_collector.export_json())
        print(f"traces written to {args.trace_export}", file=sys.stderr)
    if args.metrics_export:
        from .obs import render_prometheus, system_gauges

        with open(args.metrics_export, "w") as handle:
            handle.write(
                render_prometheus(system.network.metrics, system_gauges(system))
            )
        print(f"metrics written to {args.metrics_export}", file=sys.stderr)
    print(f"fault plan : loss={args.loss:.0%} duplicate={args.duplicate:.0%} "
          f"crash={args.crash or 'none'} seed={args.seed}")
    for outcome in chaos.outcomes:
        detail = outcome.error or outcome.coverage or f"{outcome.rows} rows"
        print(f"  {outcome.query_id:<12} {outcome.status:<9} {detail}")
    snap = chaos.snapshot
    print(chaos.summary())
    print(
        f"resilience : retries={snap.retries} retransmits={snap.retransmits} "
        f"suspicions={snap.suspicions} partial={snap.partial_results} "
        f"dropped={snap.dropped_messages} duplicated={snap.duplicated_messages}"
    )
    return 0


def _build_paper_system(arch: str, seed: int):
    """The Figure 6 (hybrid) or Figure 7 (ad-hoc) deployment."""
    from .workloads.paper import hybrid_scenario

    if arch == "adhoc":
        from .systems import AdhocSystem

        return AdhocSystem.from_scenario(adhoc_scenario(), seed=seed)
    return HybridSystem.from_scenario(hybrid_scenario(), seed=seed)


def _load_trace_export(path: str):
    """``trace_id -> span dicts`` from any of the trace export schemas
    (a node's ``trace-v1`` export or a launcher's ``trace-merge-v1``)."""
    import json

    from .obs import stitch_trace_exports

    with open(path) as handle:
        export = json.load(handle)
    if export.get("schema") == "repro.obs/trace-merge-v1":
        return stitch_trace_exports(list(export.get("nodes", {}).values()))
    return stitch_trace_exports([export])


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import render_trace, spans_from_dicts, validate_trace

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
        system = _build_paper_system(args.arch, args.seed)
        text = args.text or PAPER_QUERY
        try:
            system.query(args.via, text)
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
        if args.from_file is not None:
            import json

            with open(args.json, "w") as handle:
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
            with open(args.json, "w") as handle:
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


def _watch_loop(render, interval, iterations) -> int:
    """Re-invoke ``render`` every ``interval`` seconds (clearing the
    screen between rounds) until Ctrl-C or ``iterations`` rounds."""
    import time

    rounds = 0
    try:
        while True:
            if rounds:
                print("\033[2J\033[H", end="")
            code = render()
            rounds += 1
            if iterations is not None and rounds >= iterations:
                return code
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def _render_merged_dumps(directory: str) -> int:
    from pathlib import Path

    from .obs import merge_expositions

    dumps = sorted(Path(directory).glob("*.metrics.prom"))
    if not dumps:
        print(f"error: no *.metrics.prom files under {directory}",
              file=sys.stderr)
        return 1
    print(merge_expositions([p.read_text() for p in dumps]), end="")
    print(f"# merged {len(dumps)} process dumps", file=sys.stderr)
    return 0


def _render_scraped(directory: str, peer_filter) -> int:
    from pathlib import Path

    from .errors import NetworkError
    from .obs import merge_expositions
    from .obs.telemetry import discover_endpoints, scrape

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
    from .obs import render_prometheus, system_gauges

    if args.scrape is not None:
        render = lambda: _render_scraped(args.scrape, args.peer_filter)  # noqa: E731
    elif args.merge is not None:
        render = lambda: _render_merged_dumps(args.merge)  # noqa: E731
    else:
        render = None
    if render is not None:
        if args.watch is not None:
            return _watch_loop(render, args.watch, args.iterations)
        return render()
    if args.watch is not None:
        print("error: --watch needs --scrape DIR or --merge DIR "
              "(nothing moves in a finished in-sim run)", file=sys.stderr)
        return 2
    system = _build_paper_system(args.arch, args.seed)
    via = "P1"
    for _ in range(args.queries):
        try:
            system.query(via, PAPER_QUERY)
        except Exception as exc:
            print(f"query failed: {exc}", file=sys.stderr)
    print(render_prometheus(system.network.metrics, system_gauges(system)), end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .errors import EventBudgetExhausted
    from .workload_engine import AdmissionControl, WorkloadSpec
    from .workloads.data_gen import Distribution, generate_bases
    from .workloads.query_gen import random_queries
    from .workloads.schema_gen import generate_schema

    synthetic = generate_schema(
        chain_length=4, refinement_fraction=0.0, noise_properties=1,
        seed=args.seed,
    )
    peer_ids = [f"P{i}" for i in range(1, args.peers + 1)]
    generated = generate_bases(
        synthetic, peer_ids, Distribution.MIXED,
        statements_per_segment=15, shared_pool=6, seed=args.seed,
    )
    texts = random_queries(
        synthetic, max(4, min(args.count, 12)), max_length=3, seed=args.seed
    )
    config = DEFAULT_CONFIG
    if args.topk is not None:
        # any-k early termination, with paced chunked streaming so the
        # cancellation has channels left to stop
        config = replace(config, topk_cancel=True, stream_chunk_rows=4)
    if args.arch == "adhoc":
        from .systems import AdhocSystem

        system = AdhocSystem(synthetic.schema, seed=args.seed, config=config)
        for peer_id in peer_ids:
            neighbours = [p for p in peer_ids if p != peer_id]
            system.add_peer(peer_id, generated.bases[peer_id], neighbours)
        system.discover_all()
    else:
        system = HybridSystem(synthetic.schema, seed=args.seed, config=config)
        system.add_super_peer("SP")
        for peer_id in peer_ids:
            system.add_peer(peer_id, generated.bases[peer_id], "SP")
        system.run()  # settle the advertisement push
    if args.max_concurrent is not None:
        system.enable_admission(AdmissionControl(
            max_concurrent=args.max_concurrent,
            max_queued=args.max_queued,
            retry_after=args.retry_after,
            deadline=args.deadline,
        ))
    if args.fair_quantum is not None:
        system.enable_fair_scheduling(args.fair_quantum)
    driver = None
    if args.updates:
        from .livedata import LiveDataDriver, UpdateStream

        stream = UpdateStream(
            synthetic.schema, generated.bases, seed=args.seed,
            revisions=args.update_revisions, rate=args.update_rate,
        )
        driver = LiveDataDriver(system, stream)
        driver.schedule()
    spec = WorkloadSpec(
        queries=tuple(
            (peer_ids[i % len(peer_ids)], texts[i % len(texts)])
            for i in range(args.count)
        ),
        count=args.count,
        mode=args.mode,
        arrival_rate=args.arrival_rate,
        burst_size=args.burst,
        clients=args.clients,
        think_time=args.think_time,
        seed=args.seed,
        resubmit_sheds=not args.no_resubmit,
        limit=args.topk,
    )
    try:
        report = system.serve(spec, max_events=args.max_events)
    except EventBudgetExhausted as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 1
    print(f"deployment : {args.arch} ({args.peers} peers, "
          f"{min(args.clients, args.count)} clients, seed {args.seed})")
    print(f"load       : {args.mode} loop, {args.count} queries over "
          f"{len(texts)} distinct texts")
    print(report.render())
    metrics = system.network.metrics
    if driver is not None:
        applied = sum(a.applied for a in driver.injector.acks)
        print(f"updates    : {driver.injected} batches injected "
              f"({applied} statements applied, "
              f"{metrics.messages_by_kind['AdvertiseDelta']} "
              f"advertisement deltas)")
    if args.topk is not None:
        print(f"top-k      : LIMIT {args.topk} on every query, "
              f"{metrics.topk_cancels} early cancels, "
              f"{metrics.discarded_bindings} bindings discarded")
    silent = report.by_status().get("silent", 0)
    if silent:
        print(f"WARNING: {silent} queries never got a reply", file=sys.stderr)
        return 1
    return 0


def _render_top(outdir, series, window: float) -> int:
    """One ``repro top`` frame: scrape every endpoint, print the table."""
    import time
    from pathlib import Path

    from .obs.telemetry import discover_endpoints

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
    rollup = series.rollup(window)
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
        roll = peer.rollup(window)
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
    from .errors import NetworkError
    from .obs.telemetry import (
        TelemetrySample,
        parse_exposition,
        sample_from_exposition,
        scrape,
        scrape_json,
    )

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
    from .obs.telemetry import ClusterSeries

    series = ClusterSeries()
    render = lambda: _render_top(args.outdir, series, args.window)  # noqa: E731
    if args.watch:
        return _watch_loop(render, args.interval, args.iterations)
    return render()


def _cmd_alerts_demo(args: argparse.Namespace) -> int:
    """Drive an overloaded in-sim deployment until the shed-rate SLO
    fires — the watchdogs' end-to-end demo (and the CI probe that an
    injected overload actually raises an alert)."""
    from .errors import EventBudgetExhausted
    from .obs.telemetry import default_slo_rules, render_alert
    from .workload_engine import AdmissionControl, WorkloadSpec
    from .workload_engine.driver import WorkloadDriver
    from .workloads.data_gen import Distribution, generate_bases
    from .workloads.query_gen import random_queries
    from .workloads.schema_gen import generate_schema

    synthetic = generate_schema(
        chain_length=4, refinement_fraction=0.0, noise_properties=1,
        seed=args.seed,
    )
    peer_ids = ["P1", "P2", "P3"]
    generated = generate_bases(
        synthetic, peer_ids, Distribution.MIXED,
        statements_per_segment=15, shared_pool=6, seed=args.seed,
    )
    texts = random_queries(synthetic, 6, max_length=3, seed=args.seed)
    system = HybridSystem(synthetic.schema, seed=args.seed)
    system.add_super_peer("SP")
    for peer_id in peer_ids:
        system.add_peer(peer_id, generated.bases[peer_id], "SP")
    system.run()
    # starve admission so the burst has to shed
    system.enable_admission(AdmissionControl(
        max_concurrent=1, max_queued=1, retry_after=25.0
    ))
    count = 32
    spec = WorkloadSpec(
        queries=tuple(
            (peer_ids[i % len(peer_ids)], texts[i % len(texts)])
            for i in range(count)
        ),
        count=count,
        mode="open",
        arrival_rate=4.0,
        burst_size=4,
        clients=4,
        seed=args.seed,
        resubmit_sheds=False,
    )
    driver = WorkloadDriver(system, spec)
    driver.attach_telemetry(
        rules=default_slo_rules(shed_bound=args.shed_alert, window=args.window),
        window=args.window,
    )
    driver.install()
    try:
        system.network.run(max_events=2_000_000)
    except EventBudgetExhausted as exc:
        print(f"demo failed: {exc}", file=sys.stderr)
        return 1
    report = driver.report()
    by_status = report.by_status()
    print(f"overload   : {count} queries burst at an admission gate of "
          f"1 running + 1 queued per peer")
    print(f"outcomes   : " + " ".join(
        f"{status}={n}" for status, n in sorted(by_status.items())
    ))
    if not driver.slo_events:
        print("no alerts fired (overload insufficient?)", file=sys.stderr)
        return 1
    print("alerts     :")
    for event in driver.slo_events:
        print("  " + render_alert(event))
    fired = {e["rule"] for e in driver.slo_events if e["state"] == "firing"}
    print(f"fired rules: {', '.join(sorted(fired))}")
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    if args.demo:
        return _cmd_alerts_demo(args)
    if args.outdir is None:
        print("error: give a run directory to replay, or --demo",
              file=sys.stderr)
        return 2
    from pathlib import Path

    from .obs.telemetry import read_timeline, render_alert

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


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "figures":
        return _cmd_figures()
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "peer":
        from .deploy.node import run_node

        return run_node(args)
    if args.command == "launch":
        from .deploy.launcher import run_launch

        return run_launch(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "alerts":
        return _cmd_alerts(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
