"""``serve`` and ``alerts``: concurrent load against one synthetic
deployment — three generated peer bases over a 4-step schema chain."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from ..config import DEFAULT_CONFIG, PeerConfig
from ..errors import EventBudgetExhausted
from ..livedata import LiveDataDriver, UpdateStream
from ..obs.telemetry import default_slo_rules, read_timeline, render_alert
from ..systems import AdhocSystem, HybridSystem
from ..workload_engine import AdmissionControl, WorkloadDriver, WorkloadSpec
from ..workloads.data_gen import Distribution, generate_bases
from ..workloads.query_gen import random_queries
from ..workloads.schema_gen import generate_schema

PEER_IDS = ("P1", "P2", "P3")
#: ``alerts --demo``: the shed-rate fraction that trips the shed-rate
#: rule, and the sliding window the rules evaluate over
DEMO_SHED_BOUND = 0.05
DEMO_WINDOW = 120.0


def register(commands) -> None:
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
    serve.add_argument("--clients", type=int, default=4,
                       help="driver-owned client peers")
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
                       "spread over the run")
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
        (PEER_IDS[i % len(PEER_IDS)], texts[i % len(texts)])
        for i in range(count)
    )
    return system, bases, queries


def _cmd_serve(args: argparse.Namespace) -> int:
    config = DEFAULT_CONFIG
    if args.topk is not None:
        # any-k early termination, with paced chunked streaming so the
        # cancellation has channels left to stop
        config = replace(config, topk_cancel=True, stream_chunk_rows=4)
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
    driver = None
    if args.updates:
        stream = UpdateStream(
            system.schema, bases, seed=args.seed,
            revisions=args.update_revisions, rate=args.update_rate,
        )
        driver = LiveDataDriver(system, stream)
        driver.schedule()
    spec = WorkloadSpec(
        queries=queries,
        count=args.count,
        mode=args.mode,
        arrival_rate=args.arrival_rate,
        clients=args.clients,
        seed=args.seed,
        limit=args.topk,
    )
    try:
        report = system.serve(spec, max_events=args.max_events)
    except EventBudgetExhausted as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 1
    print(f"deployment : {args.arch} ({len(PEER_IDS)} peers, "
          f"{min(args.clients, args.count)} clients, seed {args.seed})")
    print(f"load       : {args.mode} loop, {args.count} queries over "
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
    silent = report.by_status().get("silent", 0)
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
    spec = WorkloadSpec(
        queries=queries,
        count=count,
        mode="open",
        arrival_rate=4.0,
        burst_size=4,
        clients=4,
        resubmit_sheds=False,
    )
    driver = WorkloadDriver(system, spec)
    driver.attach_telemetry(
        rules=default_slo_rules(shed_bound=DEMO_SHED_BOUND, window=DEMO_WINDOW),
        window=DEMO_WINDOW,
    )
    driver.install()
    try:
        system.network.run(max_events=2_000_000)
    except EventBudgetExhausted as exc:
        print(f"demo failed: {exc}", file=sys.stderr)
        return 1
    by_status = driver.report().by_status()
    print(f"overload   : {count} queries burst at an admission gate of "
          f"1 running + 1 queued per peer")
    print("outcomes   : " + " ".join(
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
