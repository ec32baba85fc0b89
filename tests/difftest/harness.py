"""Differential-testing harness: distributed versus centralized.

The oracle: for any seeded workload (synthetic RDF/S schema, peer
bases, conjunctive chain queries), evaluating a query through a
distributed deployment — hybrid or ad-hoc, any batch size — must
return exactly the binding multiset the centralized
evaluator produces over the *union* of every peer base.

The centralized reference is :func:`repro.rql.evaluator.query` on one
merged graph, with a final ``distinct`` to match the coordinator's
finalisation (set semantics on the projected answer).  A distributed
"no relevant peers" failure maps to the empty table: advertisements
are derived from base content, so a query no peer advertises has no
entailed matches in the merged base either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import PeerConfig
from repro.errors import PeerError
from repro.rdf.graph import Graph
from repro.rql.bindings import BindingTable
from repro.rql.evaluator import query as centralized_query
from repro.systems import AdhocSystem, HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import random_queries
from repro.workloads.schema_gen import SyntheticSchema, generate_schema

#: Distributions cycled over dataset seeds, so a sweep of seeds covers
#: join-heavy (vertical), union-heavy (horizontal) and mixed layouts.
DISTRIBUTIONS = (
    Distribution.VERTICAL,
    Distribution.HORIZONTAL,
    Distribution.MIXED,
)


@dataclass
class Workload:
    """One seeded (dataset, queries) pair."""

    seed: int
    synthetic: SyntheticSchema
    bases: Dict[str, Graph]
    queries: List[str]
    distribution: Distribution
    peer_ids: List[str] = field(default_factory=list)


def make_workload(
    seed: int,
    peers: int = 3,
    chain_length: int = 4,
    queries: int = 4,
    statements_per_segment: int = 15,
) -> Workload:
    """A deterministic workload for one seed.

    The distribution cycles with the seed; sizes stay small enough that
    a full sweep of seeds and modes runs in test time, while vertical
    layouts with fewer peers than chain segments deliberately leave
    some segments uncovered (exercising the "no relevant peers" path).
    """
    synthetic = generate_schema(
        chain_length=chain_length,
        refinement_fraction=0.0,
        noise_properties=1,
        seed=seed,
    )
    peer_ids = [f"P{i}" for i in range(1, peers + 1)]
    distribution = DISTRIBUTIONS[seed % len(DISTRIBUTIONS)]
    generated = generate_bases(
        synthetic,
        peer_ids,
        distribution,
        statements_per_segment=statements_per_segment,
        shared_pool=6,
        seed=seed,
    )
    texts = random_queries(
        synthetic, queries, max_length=min(3, chain_length), seed=seed
    )
    return Workload(seed, synthetic, generated.bases, texts, distribution, peer_ids)


def merged_graph(workload: Workload) -> Graph:
    """The union of every peer base (the centralized database)."""
    merged = Graph()
    for graph in workload.bases.values():
        for triple in graph.triples():
            merged.add_triple(triple)
    return merged


def centralized_answer(workload: Workload, text: str) -> BindingTable:
    """The reference result: local evaluation over the merged base."""
    return centralized_query(
        text, merged_graph(workload), workload.synthetic.schema
    ).distinct()


def build_hybrid(
    workload: Workload, statistics=None, transport=None, **options
) -> HybridSystem:
    """A one-super-peer hybrid deployment of the workload; ``options``
    are :class:`~repro.config.PeerConfig` fields."""
    system = HybridSystem(
        workload.synthetic.schema,
        seed=workload.seed,
        statistics=statistics,
        transport=transport,
        config=PeerConfig(**options),
    )
    system.add_super_peer("SP")
    for peer_id in workload.peer_ids:
        system.add_peer(peer_id, workload.bases[peer_id], "SP")
    system.run()  # settle the advertisement push
    return system


def build_adhoc(workload: Workload, statistics=None, **options) -> AdhocSystem:
    """A fully-connected ad-hoc deployment of the workload; ``options``
    are :class:`~repro.config.PeerConfig` fields."""
    system = AdhocSystem(
        workload.synthetic.schema,
        seed=workload.seed,
        statistics=statistics,
        config=PeerConfig(**options),
    )
    for peer_id in workload.peer_ids:
        neighbours = [p for p in workload.peer_ids if p != peer_id]
        system.add_peer(peer_id, workload.bases[peer_id], neighbours)
    system.discover_all()
    return system


def concurrent_answers(system, workload: Workload, count: int,
                       arrival_rate: float = 0.8):
    """Serve ``count`` interleaved queries open-loop and capture every
    final answer.

    Submissions cycle through the workload's query texts and rotate the
    coordinating peer, so several coordinations (often of the *same*
    text via different peers) overlap in flight.  Returns ``(report,
    answers)`` where ``answers[index]`` is the
    :class:`~repro.peers.client.QueryResult` the client received for
    logical query ``index`` (``None``: no reply).
    """
    from repro.resilience.harness import PlayReport
    from repro.scenario import Query, Scenario, play

    queries = [
        Query(workload.peer_ids[i % len(workload.peer_ids)],
              workload.queries[i % len(workload.queries)])
        for i in range(count)
    ]
    load = Scenario.arrivals(queries, count, arrival_rate, workload.seed,
                             start=system.network.now)
    report = PlayReport.collect(
        play(load, system, shed_retries=3, max_events=2_000_000), system.network
    )
    return report, [outcome.result for outcome in report.outcomes]


def sequential_twin_answers(builder, workload: Workload, count: int, **options):
    """The oracle for the concurrent sweep: a *fresh* deployment of the
    same workload (same seed, same execution options) evaluating the
    same logical queries one at a time, each to quiescence.  Returns
    ``answers[index] -> (table or None, error or None)``."""
    twin = builder(workload, **options)
    answers = {}
    for index in range(count):
        via = workload.peer_ids[index % len(workload.peer_ids)]
        text = workload.queries[index % len(workload.queries)]
        try:
            answers[index] = (twin.query(via, text), None)
        except PeerError as exc:
            answers[index] = (None, str(exc))
    return answers


def distributed_answer(system, via: str, text: str) -> Optional[BindingTable]:
    """Evaluate through a deployment; ``None`` means "no relevant
    peers" (asserted empty by the caller), any other failure raises."""
    try:
        return system.query(via, text)
    except PeerError as exc:
        if "no relevant peers" in str(exc):
            return None
        raise


def assert_equivalent(workload: Workload, system, via: str, text: str) -> None:
    """One differential comparison: distributed == centralized."""
    expected = centralized_answer(workload, text)
    actual = distributed_answer(system, via, text)
    if actual is None:
        assert len(expected) == 0, (
            f"distributed found no relevant peers but centralized has "
            f"{len(expected)} rows for {text!r} (seed {workload.seed})"
        )
        return
    assert actual == expected, (
        f"distributed {len(actual)} rows != centralized {len(expected)} rows "
        f"for {text!r} (seed {workload.seed}, {workload.distribution.value})"
    )
