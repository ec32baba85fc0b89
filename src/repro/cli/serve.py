"""``serve`` and ``alerts``: concurrent load against one synthetic
deployment — three generated peer bases over a 4-step schema chain."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from ..config import DEFAULT_CONFIG, AdmissionControl, PeerConfig, topk_streaming
from ..errors import EventBudgetExhausted
from ..livedata import LiveDataDriver, UpdateStream
from ..obs.telemetry import (
    ClusterSeries,
    SLOMonitor,
    TelemetryProbe,
    default_slo_rules,
    read_timeline,
    render_alert,
)
from ..resilience.harness import PlayReport
from ..scenario import Query, Scenario, Update, play
from ..systems import AdhocSystem, HybridSystem
from ..workloads.data_gen import Distribution, generate_bases
from ..workloads.query_gen import random_queries
from ..workloads.schema_gen import generate_schema

PEER_IDS = ("P1", "P2", "P3")
#: ``serve``: how often a shed query is re-offered after its back-off
SHED_RETRIES = 3
#: ``alerts --demo``: the shed-rate fraction that trips the shed-rate
#: rule, and the sliding window the rules evaluate over
DEMO_SHED_BOUND = 0.05
DEMO_WINDOW = 120.0


def register(commands) -> None:
    serve = commands.add_parser(
        "serve",
        help="offer open-loop query load to a synthetic deployment and "
        "print the serving report",
    )
    serve.add_argument("--arch", choices=("hybrid", "adhoc"), default="hybrid",
                       help="deployment architecture")
    serve.add_argument("--count", type=int, default=24,
                       help="queries to offer")
    serve.add_argument("--arrival-rate", type=float, default=0.2,
                       help="mean Poisson arrivals per unit of virtual time")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for the deployment and the arrival process")
    serve.add_argument("--max-concurrent", type=int, default=None,
                       metavar="N",
                       help="enable admission control: coordinations held "
                       "at once per peer before queueing")
    serve.add_argument("--max-queued", type=int, default=16,
                       help="admission queue bound before shedding")
    serve.add_argument("--fair-quantum", type=float, default=None,
                       metavar="Q",
                       help="enable fair per-query scheduling with this "
                       "round-robin quantum")
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
                       "spread over the arrival window")
    serve.add_argument("--topk", type=int, default=None, metavar="K",
                       help="pose every query as top-K (LIMIT K) with "
                       "any-k early termination: once K answers are "
                       "stable the coordinator discards the remaining "
                       "channels the ubQL way")
    serve.set_defaults(run=_cmd_serve)

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
    alerts.add_argument("--fail-on-active", action="store_true",
                        help="exit non-zero if any alert is still firing "
                        "at the end")
    alerts.set_defaults(run=_cmd_alerts)


def _synthetic_deployment(seed: int, distinct: int, count: int,
                          arch: str = "hybrid",
                          config: PeerConfig = DEFAULT_CONFIG):
    """The settled system, its generated bases, and ``count`` queries
    cycling over the peers and over ``distinct`` generated texts.

    (Not ``deploy.build_workload``: that cycles the data distribution
    with the seed, and a VERTICAL layout leaves some of these texts
    without an answer.)"""
    synthetic = generate_schema(
        chain_length=4, refinement_fraction=0.0, noise_properties=1, seed=seed,
    )
    bases = generate_bases(
        synthetic, PEER_IDS, Distribution.MIXED,
        statements_per_segment=15, shared_pool=6, seed=seed,
    ).bases
    texts = random_queries(synthetic, distinct, max_length=3, seed=seed)
    if arch == "adhoc":
        system = AdhocSystem(synthetic.schema, seed=seed, config=config)
        for peer_id in PEER_IDS:
            neighbours = [p for p in PEER_IDS if p != peer_id]
            system.add_peer(peer_id, bases[peer_id], neighbours)
        system.discover_all()
    else:
        system = HybridSystem(synthetic.schema, seed=seed, config=config)
        system.add_super_peer("SP")
        for peer_id in PEER_IDS:
            system.add_peer(peer_id, bases[peer_id], "SP")
        system.run()  # settle the advertisement push
    queries = tuple(
        Query(PEER_IDS[i % len(PEER_IDS)], texts[i % len(texts)])
        for i in range(count)
    )
    return system, bases, queries


def _serving_scenario(system, bases, queries, args):
    """The load ``serve`` offers — ``queries`` arriving open-loop from
    now on — and, with ``--updates``, the live update revisions spread
    over its arrival window, with the driver they go through."""
    load = Scenario.arrivals(queries, args.count, args.arrival_rate, args.seed,
                             start=system.network.now)
    if not args.updates:
        return load, None
    stream = UpdateStream(
        system.schema, bases, seed=args.seed,
        revisions=args.update_revisions, rate=args.update_rate,
    )
    # evenly inside the arrival window, so every revision overlaps
    # queries still being submitted and answered
    first, last = load.events[0].at, load.events[-1].at
    spacing = (last - first) / (len(stream.revisions) + 1)
    revisions = [Update(i + 1, at=first + spacing * (i + 1))
                 for i in range(len(stream.revisions))]
    return Scenario((*revisions, *load)), LiveDataDriver(system, stream)


def _cmd_serve(args: argparse.Namespace) -> int:
    config = DEFAULT_CONFIG
    if args.topk is not None:
        config = topk_streaming(config)
    distinct = max(4, min(args.count, 12))
    system, bases, queries = _synthetic_deployment(
        args.seed, distinct, args.count, args.arch, config
    )
    if args.max_concurrent is not None:
        system.enable_admission(AdmissionControl(
            max_concurrent=args.max_concurrent, max_queued=args.max_queued,
        ))
    if args.fair_quantum is not None:
        system.enable_fair_scheduling(args.fair_quantum)
    if args.topk is not None:
        queries = [replace(query, limit=args.topk) for query in queries]
    scenario, driver = _serving_scenario(system, bases, queries, args)
    try:
        report = PlayReport.collect(
            play(scenario, system, updates=driver, shed_retries=SHED_RETRIES,
                 max_events=args.max_events),
            system.network,
        )
    except EventBudgetExhausted as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 1
    print(f"deployment : {args.arch} ({len(PEER_IDS)} peers, seed {args.seed})")
    print(f"load       : open loop, {args.count} queries over "
          f"{distinct} distinct texts")
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
    silent = report.count("no-reply")
    if silent:
        print(f"WARNING: {silent} queries never got a reply", file=sys.stderr)
        return 1
    return 0


def _alerts_demo() -> int:
    """Drive an overloaded in-sim deployment until the shed-rate SLO
    fires — the watchdogs' end-to-end demo (and the CI probe that an
    injected overload actually raises an alert)."""
    count = 32
    system, _, queries = _synthetic_deployment(seed=0, distinct=6, count=count)
    # starve admission so the burst has to shed
    system.enable_admission(AdmissionControl(max_concurrent=1, max_queued=1))
    # the watchdog samples on every answer: pull-based and uncharged, it
    # reads metrics and schedules nothing, so the run is the bare one
    probe = TelemetryProbe(
        system.network,
        peers=[*system.peers.values(), *system.super_peers.values()],
    )
    series = ClusterSeries()
    monitor = SLOMonitor(default_slo_rules(shed_bound=DEMO_SHED_BOUND),
                         scope="sim", window=DEMO_WINDOW)
    alerts = []

    def watch(client, result) -> None:
        sample = probe.sample()
        series.append(probe.node_id, sample)
        alerts.extend(monitor.evaluate(sample.t, series.rollup(monitor.window)))

    client = system.add_client()
    client.result_listeners.append(watch)
    load = Scenario.arrivals(queries, count, rate=4.0, seed=0, burst=4,
                             start=system.network.now)
    try:
        report = PlayReport.collect(
            play(load, system, client=client, max_events=2_000_000),
            system.network,
        )
    except EventBudgetExhausted as exc:
        print(f"demo failed: {exc}", file=sys.stderr)
        return 1
    print(f"overload   : {count} queries burst at an admission gate of "
          f"1 running + 1 queued per peer")
    print("outcomes   : " + " ".join(
        f"{status}={n}" for status, n in sorted(report.by_status().items())
    ))
    if not alerts:
        print("no alerts fired (overload insufficient?)", file=sys.stderr)
        return 1
    print("alerts     :")
    for event in alerts:
        print("  " + render_alert(event))
    fired = {e["rule"] for e in alerts if e["state"] == "firing"}
    print(f"fired rules: {', '.join(sorted(fired))}")
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    if args.demo:
        return _alerts_demo()
    if args.outdir is None:
        print("error: give a run directory to replay, or --demo",
              file=sys.stderr)
        return 2
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
