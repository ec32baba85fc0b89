"""Experiment fig3 — Figure 3: plan generation and channel deployment.

Reproduces Figure 3's query plan (unions for horizontal, join for
vertical distribution) and the channel set P1 deploys, then benchmarks
the Query-Processing Algorithm.
"""

from __future__ import annotations

from repro.core import build_plan, route_query
from repro.core.algebra import count_scans
from repro.execution import PlanExecutor
from repro.net import Network
from repro.peers.base import Peer, PeerBase
from repro.workloads.paper import (
    paper_active_schemas,
    paper_peer_bases,
    paper_query_pattern,
    paper_schema,
)

from ._common import banner, format_table, write_report

SCHEMA = paper_schema()
PATTERN = paper_query_pattern(SCHEMA)
ANNOTATED = route_query(PATTERN, paper_active_schemas(SCHEMA).values(), SCHEMA)

PAPER_PLAN = "⋈(∪(Q1@P1, Q1@P2, Q1@P4), ∪(Q2@P1, Q2@P3, Q2@P4))"


def _deploy_channels(plan):
    """The channels P1's executor opens for ``plan``: one per distinct
    destination peer, as Section 2.4 prescribes ('only one channel is of
    course created'), each shipping all of that peer's subplans."""
    network = Network()
    peers = {}
    for peer_id, graph in paper_peer_bases().items():
        peers[peer_id] = Peer(peer_id, PeerBase(graph, SCHEMA))
        peers[peer_id].join(network)
    PlanExecutor(peers["P1"], network, (plan,)).start()
    channels = peers["P1"].channels.open_channels().values()
    deployed = sorted((c.destination, len(c.outputs)) for c in channels)
    network.run()
    assert len(peers["P1"].channels) == 0  # every one answered
    return deployed


def report() -> str:
    plan = build_plan(ANNOTATED)
    channels = _deploy_channels(plan)
    rows = [
        ("plan", PAPER_PLAN, plan.render()),
        ("horizontal distribution", "unions over {P1,P2,P4} / {P1,P3,P4}",
         f"union arities {[len(c.children()) for c in plan.children()]}"),
        ("vertical distribution", "one join (Q1 ⋈ Q2)", "join arity 2"),
        ("scan subqueries", "6", count_scans(plan)),
        ("channels from P1", "P2, P3, P4 (one per peer)",
         ", ".join(f"{peer} ({subplans} subplan{'s' * (subplans > 1)})"
                   for peer, subplans in channels)),
    ]
    text = banner(
        "fig3",
        "Figure 3: query plan generation and channel deployment",
        "unions favour completeness, joins ensure correctness; one channel per contacted peer",
    ) + format_table(("item", "paper", "measured"), rows)
    return write_report("fig3", text)


def bench_plan_generation(benchmark):
    plan = benchmark(build_plan, ANNOTATED)
    assert plan.render() == PAPER_PLAN
    report()


def bench_plan_generation_wide(benchmark):
    """Planning cost with 60 annotated peers per pattern."""
    from repro.core.annotations import AnnotatedQueryPattern, PeerAnnotation

    wide = AnnotatedQueryPattern(PATTERN)
    for pattern in PATTERN:
        for i in range(60):
            wide.annotate(pattern, PeerAnnotation(f"W{i:02d}", pattern, exact=True))
    plan = benchmark(build_plan, wide)
    assert count_scans(plan) == 120
