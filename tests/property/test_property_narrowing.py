"""The narrowing wall: asking each shipped subplan for only the columns
its channel root reads changes no answer.

Random plans over random bases mix what the rule has to get right:
unions of scans under joins, scans local to the coordinator beside
shipped siblings, and joins and unions shipped whole to another peer
(hybrid shipping), which then ask their own children.  Each plan runs
narrowed at the source and at raw width (every shipment asked for
``None``), and the distinct projections onto ``needed`` must agree in
the gather, pipelined, top-k and phased modes.  The phased run first
fills the query's scan cache under a narrower ``needed`` — the cache
must never hand a later, wider consumer a narrowed table.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra import Join, Scan, Union
from repro.execution import PlanExecutor
from repro.execution.batch import distinct_union
from repro.execution.engine import ExecutionStrategy
from repro.net import Network
from repro.peers.base import Peer, PeerBase
from repro.workloads.paper import paper_query_pattern, paper_schema

from ..idtables import decode_cells
from .test_property_semantics import SCHEMA, distributed_bases

Q1, Q2 = paper_query_pattern(paper_schema()).patterns  # (X, Y) and (Y, Z)
PEERS = ("A", "B", "C")  # A coordinates and holds data of its own
MODES = ("gather", "pipelined", "top-k", "phased")
TOP_K = 2

peer_lists = st.lists(st.sampled_from(PEERS), min_size=1, max_size=3, unique=True)


@st.composite
def plans(draw):
    """A union of joins (each operand a scan or a union of scans of one
    path pattern) and composite scans, every inner node sited at a
    drawn peer."""

    def operand(pattern):
        scans = [Scan((pattern,), peer) for peer in draw(peer_lists)]
        return scans[0] if len(scans) == 1 else Union(scans)

    joins = [Join([operand(Q1), operand(Q2)]) for _ in range(draw(st.integers(1, 2)))]
    composites = [
        Scan((Q1, Q2), peer)
        for peer in draw(st.lists(st.sampled_from(PEERS), max_size=2, unique=True))
    ]
    children = joins + composites
    plan = children[0] if len(children) == 1 else Union(children)
    sites = {}

    def place(node, path):
        if isinstance(node, Scan):
            return
        sites[path] = draw(st.sampled_from(PEERS))
        for index, child in enumerate(node.children()):
            place(child, path + (index,))

    place(plan, (0,))  # keyed under the executor's one plan
    return plan, sites


needed_sets = st.sets(st.sampled_from("XYZ"), min_size=1)


def run(bases, plan, sites, needed, mode, narrower):
    """Execute at A; the distinct answer rows over ``needed``."""
    network = Network()
    peers = {}
    for peer_id, graph in bases.items():
        peers[peer_id] = Peer(peer_id, PeerBase(graph, SCHEMA))
        peers[peer_id].join(network)
    columns = tuple(c for c in plan.variables() if c in needed)
    cache = {} if mode == "phased" else None
    stop = None
    if mode == "top-k":

        def stop(merged):
            return len(distinct_union([merged], columns)) >= TOP_K

    outcome = []
    for attempt_needed in ([narrower] if cache is not None else []) + [needed]:
        outcome.clear()
        strategy = ExecutionStrategy(
            stream=mode in ("pipelined", "top-k"),
            scan_cache=cache,
            early_stop=stop,
            needed=(frozenset(attempt_needed),),
        )
        PlanExecutor(
            peers["A"], network, (plan,), sites,
            on_complete=lambda tables, failed: outcome.append((tables[0], failed)),
            strategy=strategy,
        ).start()
        network.run()
    ((table, failed),) = outcome
    assert failed is None
    answer = decode_cells(table, peers["A"].dictionary)
    return set(answer.project(columns).rows)


def at_raw_width(bases, plan, sites, needed, mode, narrower):
    with mock.patch.object(PlanExecutor, "_requested", lambda self, node, needed: None):
        return run(bases, plan, sites, needed, mode, narrower)


@given(distributed_bases(PEERS), plans(), needed_sets, needed_sets)
@settings(max_examples=40, deadline=None)
def test_narrowed_shipping_answers_as_raw_width_does(bases, placed, needed, narrower):
    plan, sites = placed
    narrower = narrower & needed or needed
    for mode in MODES:
        narrowed = run(bases, plan, sites, needed, mode, narrower)
        raw = at_raw_width(bases, plan, sites, needed, mode, narrower)
        if mode == "top-k":
            # which k rows a stop keeps depends on arrival order, which
            # smaller packets move: both are that many rows of the answer
            full = at_raw_width(bases, plan, sites, needed, "gather", narrower)
            for rows in (narrowed, raw):
                assert rows <= full and len(rows) >= min(TOP_K, len(full))
        else:
            assert narrowed == raw, mode
