"""``demo`` and ``figures``: the paper's running example — its four
peer bases clustered under one super-peer."""

from __future__ import annotations

import argparse

from ..core import build_plan, optimize, route_query
from ..rvl import ActiveSchema
from ..systems import HybridSystem
from ..workloads.paper import (
    PAPER_QUERY,
    adhoc_scenario,
    paper_active_schemas,
    paper_peer_bases,
    paper_query_pattern,
    paper_schema,
)


def register(commands) -> None:
    demo = commands.add_parser("demo", help="run the paper's running example")
    demo.set_defaults(run=_cmd_demo)

    figures = commands.add_parser(
        "figures", help="print the Figure 2/3/4/7 artefacts"
    )
    figures.set_defaults(run=_cmd_figures)


def _paper_system() -> HybridSystem:
    system = HybridSystem(paper_schema())
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

