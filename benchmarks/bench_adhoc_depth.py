"""Experiment depth — Section 3.2: k-depth neighbourhood discovery.

Quantifies "when a peer receives a query ... which cannot be answered
by the semantic neighbors of the peer, it could request the
active-schema information of a 2-depth, 3-depth, etc. neighbourhood,
until a relevant peer is found".

Topology: a chain ``P1 - M1 - ... - Mk - W`` where the ``Mi`` hold no
relevant data and ``W`` answers the whole query.  Plan forwarding
cannot help (no ``Mi`` is annotated for any pattern), so only k-depth
discovery reaches ``W``; the required depth grows with the distance,
and so does the advertisement traffic.
"""

from __future__ import annotations

from repro.config import PeerConfig
from repro.errors import PeerError
from repro.rdf import Graph, TYPE
from repro.systems import AdhocSystem
from repro.workloads.paper import DATA, N1, PAPER_QUERY, paper_schema

from ._common import banner, format_table, write_report

SCHEMA = paper_schema()


def _provider_base(rows: int = 3) -> Graph:
    graph = Graph()
    for i in range(rows):
        x, y, z = DATA[f"dwx{i}"], DATA[f"dwy{i}"], DATA[f"dwz{i}"]
        graph.add(x, TYPE, N1.C1)
        graph.add(y, TYPE, N1.C2)
        graph.add(x, N1.prop1, y)
        graph.add(y, N1.prop2, z)
        graph.add(z, TYPE, N1.C3)
    return graph


def _chain_system(distance: int, max_depth: int) -> AdhocSystem:
    """P1 -(distance hops of empty peers)- W."""
    system = AdhocSystem(SCHEMA, config=PeerConfig(max_discovery_depth=max_depth))
    names = ["P1"] + [f"M{i}" for i in range(1, distance)] + ["W"]
    for index, name in enumerate(names):
        neighbours = []
        if index > 0:
            neighbours.append(names[index - 1])
        if index + 1 < len(names):
            neighbours.append(names[index + 1])
        graph = _provider_base() if name == "W" else Graph()
        system.add_peer(name, graph, neighbours)
    system.discover_all()
    return system


def _attempt(distance: int, max_depth: int):
    system = _chain_system(distance, max_depth)
    try:
        table = system.query("P1", PAPER_QUERY)
        return ("answered", len(table), system.network.metrics.messages_total)
    except PeerError:
        return ("failed", 0, system.network.metrics.messages_total)


def report() -> str:
    rows = []
    for distance in (1, 2, 3):
        for max_depth in (1, 2, 3, 4):
            status, answer_rows, messages = _attempt(distance, max_depth)
            rows.append((distance, max_depth, status, answer_rows, messages))
    text = banner(
        "depth",
        "Section 3.2: k-depth neighbourhood discovery in ad-hoc SONs",
        "a query unanswerable in the 1-depth neighbourhood succeeds once the "
        "discovery depth reaches the relevant peer; deeper requests cost "
        "more advertisement messages",
    ) + format_table(
        ("provider distance (hops)", "max discovery depth", "outcome",
         "rows", "messages"),
        rows,
    )
    return write_report("depth", text)


def bench_depth_reaches_distant_provider(benchmark):
    def run():
        return _attempt(distance=2, max_depth=3)

    status, answer_rows, _ = benchmark(run)
    assert status == "answered"
    assert answer_rows == 3
    report()


def bench_depth_one_insufficient(benchmark):
    def run():
        return _attempt(distance=2, max_depth=1)

    status, _, _ = benchmark(run)
    assert status == "failed"


def bench_adjacent_provider_depth_one(benchmark):
    def run():
        return _attempt(distance=1, max_depth=1)

    status, answer_rows, _ = benchmark(run)
    assert status == "answered"
    assert answer_rows == 3
