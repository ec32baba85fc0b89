"""Live-data differential harness: incremental vs from-scratch twins.

The oracle wall this module powers: run a seeded update stream through
a live deployment (incremental active-schema maintenance, delta
advertisements, warm caches), and at every quiescent revision compare
against a *from-scratch oracle twin* — a fresh deployment built from
snapshots of the current bases and views (full active-schema
re-derivation, cold routing/plan caches) — plus the centralized
evaluator over the merged current bases.  Zero tolerance: answers,
coverage annotations and active-schema digests must all agree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import PeerConfig
from repro.livedata import (
    LiveDataDriver,
    UpdateStream,
    active_schema_digest,
)
from repro.rdf.graph import Graph
from repro.rql.evaluator import query as centralized_query
from repro.systems import AdhocSystem, HybridSystem

from .harness import Workload, build_adhoc, build_hybrid, make_workload


def snapshot_bases(system, peer_ids) -> Dict[str, Tuple[Graph, tuple]]:
    """Copy each peer's current base (graph + views) for twin building."""
    return {
        peer_id: (
            system.peers[peer_id].base.graph.copy(),
            system.peers[peer_id].base.views,
        )
        for peer_id in peer_ids
    }


def build_twin(kind: str, workload: Workload, snapshot, **options):
    """A fresh deployment of the snapshotted bases: full re-derivation
    of every active schema, cold caches — the from-scratch oracle."""
    if kind == "hybrid":
        twin = HybridSystem(
            workload.synthetic.schema, seed=workload.seed, config=PeerConfig(**options)
        )
        twin.add_super_peer("SP")
        for peer_id in workload.peer_ids:
            graph, views = snapshot[peer_id]
            twin.add_peer(peer_id, graph, "SP", views=views)
        twin.run()
        return twin
    twin = AdhocSystem(
        workload.synthetic.schema, seed=workload.seed, config=PeerConfig(**options)
    )
    for peer_id in workload.peer_ids:
        graph, views = snapshot[peer_id]
        neighbours = [p for p in workload.peer_ids if p != peer_id]
        twin.add_peer(peer_id, graph, neighbours, views=views)
    twin.discover_all()
    return twin


def merged_current(system, peer_ids) -> Graph:
    """The union of every peer's *current* base (the centralized DB)."""
    merged = Graph()
    for peer_id in peer_ids:
        for triple in system.peers[peer_id].base.graph.triples():
            merged.add_triple(triple)
    return merged


def full_result(system, via: str, text: str):
    """Evaluate through a deployment, keeping the whole QueryResult
    (table, error *and* coverage annotation)."""
    client = system.add_client()
    query_id = client.submit(via, text)
    system.run()
    result = client.result(query_id)
    assert result is not None, f"no reply for {text!r} via {via}"
    return result


def _normalize(result) -> Tuple[Optional[str], Optional[object], Optional[object]]:
    """(error class, table, coverage) with 'no relevant peers' folded
    into a canonical marker (different deployments phrase it alike)."""
    if result.error is not None:
        assert "no relevant peers" in result.error, result.error
        return ("no-peers", None, None)
    return (None, result.table, result.coverage)


def assert_quiescent_equal(live, twin, workload: Workload, texts, via: str) -> int:
    """Snapshot queries at a quiescent point: live == twin == oracle."""
    merged = merged_current(live, workload.peer_ids)
    compared = 0
    for text in texts:
        live_err, live_table, live_cov = _normalize(full_result(live, via, text))
        twin_err, twin_table, twin_cov = _normalize(full_result(twin, via, text))
        expected = centralized_query(
            text, merged, workload.synthetic.schema
        ).distinct()
        assert live_err == twin_err, (
            f"live={live_err!r} twin={twin_err!r} for {text!r} "
            f"(seed {workload.seed})"
        )
        if live_err is not None:
            assert len(expected) == 0, (
                f"'no relevant peers' but oracle has {len(expected)} rows "
                f"for {text!r} (seed {workload.seed})"
            )
        else:
            assert live_table == twin_table, (
                f"live {len(live_table)} rows != twin {len(twin_table)} "
                f"for {text!r} (seed {workload.seed})"
            )
            assert live_cov == twin_cov, (
                f"coverage diverged: live={live_cov} twin={twin_cov} "
                f"for {text!r} (seed {workload.seed})"
            )
            assert live_table == expected, (
                f"live {len(live_table)} rows != centralized "
                f"{len(expected)} for {text!r} (seed {workload.seed})"
            )
        compared += 1
    return compared


def assert_digests_fresh(live, workload: Workload) -> None:
    """Every advertisement any holder believes must be digest-equal to
    a from-scratch ``active_schema`` re-derivation of the current base."""
    schema_uri = workload.synthetic.schema.namespace.uri
    fresh = {
        peer_id: live.peers[peer_id].base.active_schema(peer_id)
        for peer_id in workload.peer_ids
    }
    if live.super_peers:
        for sp in live.super_peers.values():
            held = sp.sons.advertisements(schema_uri)
            derived = [fresh[a.peer_id] for a in held]
            assert active_schema_digest(held) == active_schema_digest(derived), (
                f"super-peer {sp.peer_id} registry digest diverged "
                f"(seed {workload.seed})"
            )
    else:
        for holder_id in workload.peer_ids:
            known = live.peers[holder_id].sons.advertisements(schema_uri)
            assert known, f"{holder_id} holds no advertisement to check"
            for advertisement in known:
                src = advertisement.peer_id
                assert active_schema_digest([advertisement]) == active_schema_digest(
                    [fresh[src]]
                ), (
                    f"{holder_id}'s view of {src} went stale "
                    f"(seed {workload.seed})"
                )
    # the incremental maintainer itself must agree with from-scratch
    for peer_id in workload.peer_ids:
        maintainer = live.peers[peer_id]._maintainer
        if maintainer is not None:
            assert maintainer.current == fresh[peer_id], (
                f"{peer_id}'s maintained advertisement diverged "
                f"(seed {workload.seed})"
            )


def run_live_scenario(
    seed: int,
    kind: str,
    options: Optional[dict] = None,
    revisions: int = 3,
    queries_per_point: int = 2,
    rate: float = 0.08,
) -> int:
    """One full live-vs-oracle scenario; returns comparisons made.

    Builds a deployment, subscribes a standing query, then per seeded
    revision: injects the update batches with one query racing them in
    flight, runs to quiescence, and checks digests, snapshot answers
    (vs a from-scratch twin *and* the centralized oracle) and coverage
    annotations.  Finally the standing query's folded delta stream must
    equal the oracle's answer over the end-state bases.
    """
    options = dict(options or {})
    workload = make_workload(seed)
    builder = build_hybrid if kind == "hybrid" else build_adhoc
    system = builder(workload, **options)
    stream = UpdateStream(
        workload.synthetic.schema,
        workload.bases,
        seed=seed,
        revisions=revisions,
        rate=rate,
    )
    driver = LiveDataDriver(system, stream)
    subscriber = system.add_client("C-standing")
    standing_text = workload.queries[0]
    coordinator = workload.peer_ids[0]
    standing_id = subscriber.subscribe(coordinator, standing_text)
    system.run()
    assert standing_id in subscriber.continuous, "no initial snapshot pushed"

    peer_count = len(workload.peer_ids)
    compared = 0
    for revision in range(1, revisions + 1):
        driver.inject(revision - 1)
        # a query racing the update batches mid-flight: must terminate
        # cleanly whatever interleaving the clock deals
        probe_id = subscriber.submit(
            workload.peer_ids[revision % peer_count],
            workload.queries[revision % len(workload.queries)],
        )
        system.run()
        assert driver.acked(revision), f"revision {revision} not acked"
        probe = subscriber.result(probe_id)
        assert probe is not None
        assert probe.error is None or "no relevant peers" in probe.error, (
            f"in-flight query failed hard: {probe.error}"
        )
        driver.refresh_standing([coordinator], revision)
        system.run()
        assert_digests_fresh(system, workload)
        twin = build_twin(
            kind, workload, snapshot_bases(system, workload.peer_ids), **options
        )
        via = workload.peer_ids[revision % peer_count]
        texts = [
            workload.queries[(revision + i) % len(workload.queries)]
            for i in range(queries_per_point)
        ]
        compared += assert_quiescent_equal(system, twin, workload, texts, via)

    # the delta stream folds to the oracle's final table, bit-identically
    assert subscriber.continuous_errors.get(standing_id) is None, (
        subscriber.continuous_errors.get(standing_id)
    )
    folded = subscriber.continuous[standing_id]
    final_oracle = centralized_query(
        standing_text,
        merged_current(system, workload.peer_ids),
        workload.synthetic.schema,
    ).distinct()
    if len(folded) == 0 and len(final_oracle) == 0:
        pass  # both empty; a never-matched standing query has no columns yet
    else:
        assert folded == final_oracle, (
            f"folded {len(folded)} rows != oracle {len(final_oracle)} "
            f"(seed {seed}, {kind})"
        )
    return compared
