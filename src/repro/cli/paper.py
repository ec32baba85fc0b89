"""``demo``, ``figures`` and ``chaos``: the paper's running example —
its four peer bases clustered under one super-peer."""

from __future__ import annotations

import argparse
import sys

from ..core import build_plan, optimize, route_query
from ..resilience import FaultPlan, ResilienceConfig, run_chaos
from ..rvl import ActiveSchema
from ..scenario import Crash, Restart
from ..systems import HybridSystem
from ..workloads.paper import (
    PAPER_QUERY,
    adhoc_scenario,
    paper_active_schemas,
    paper_peer_bases,
    paper_query_pattern,
    paper_schema,
)

#: how many times ``chaos`` poses the running query
CHAOS_QUERIES = 8


def register(commands) -> None:
    demo = commands.add_parser("demo", help="run the paper's running example")
    demo.set_defaults(run=_cmd_demo)

    figures = commands.add_parser(
        "figures", help="print the Figure 2/3/4/7 artefacts"
    )
    figures.set_defaults(run=_cmd_figures)

    chaos = commands.add_parser(
        "chaos",
        help="run the running example under an adverse network "
        "(loss, duplication, jitter, crash/recovery) with resilience on",
    )
    chaos.add_argument("--seed", type=int, default=7,
                       help="seed for the network and the fault plan")
    chaos.add_argument("--loss", type=float, default=0.10,
                       help="message drop probability")
    chaos.add_argument(
        "--crash",
        default="P2@6:600",
        metavar="PEER@AT[:RECOVER]",
        help="crash schedule (empty string disables the crash)",
    )
    chaos.set_defaults(run=_cmd_chaos)


def _paper_system(seed: int = 0) -> HybridSystem:
    system = HybridSystem(paper_schema(), seed=seed)
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    return system


def _cmd_demo(args: argparse.Namespace) -> int:
    schema = paper_schema()
    print("query:", PAPER_QUERY)
    pattern = paper_query_pattern(schema)
    print("pattern:", pattern)
    annotated = route_query(pattern, paper_active_schemas(schema).values(), schema)
    print("annotated:", annotated)
    plan = build_plan(annotated)
    print("plan:", plan.render())
    print("optimized:", optimize(plan).result.render())
    table = _paper_system().query("P1", PAPER_QUERY)
    print(f"answer ({len(table)} rows):")
    for binding in table.bindings():
        print("  ", binding["X"].local_name, "->", binding["Y"].local_name)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
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


def _parse_crash(spec: str):
    """``PEER@AT[:RECOVER]`` → a :class:`Crash` (and :class:`Restart`)
    armed at those virtual times."""
    if not spec:
        return ()
    peer, _, times = spec.partition("@")
    if not times:
        raise ValueError(f"--crash expects PEER@AT[:RECOVER], got {spec!r}")
    at, _, recover = times.partition(":")
    crash = Crash(peer, at=float(at))
    return (crash, Restart(peer, at=float(recover))) if recover else (crash,)


def _cmd_chaos(args: argparse.Namespace) -> int:
    system = _paper_system(args.seed)
    system.run()
    system.enable_resilience(ResilienceConfig.default(args.seed))
    plan = FaultPlan(
        seed=args.seed + 1,
        drop_rate=args.loss,
        duplicate_rate=0.05,
        jitter=0.5,
        spike_rate=0.05,
        spike_latency=8.0,
    )
    try:
        # an impossible crash schedule is refused before anything runs
        chaos = run_chaos(system, [("P1", PAPER_QUERY)] * CHAOS_QUERIES, plan,
                          _parse_crash(args.crash))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"fault plan : loss={plan.drop_rate:.0%} duplicate={plan.duplicate_rate:.0%} "
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
