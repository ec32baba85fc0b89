"""Metamorphic properties of the live data plane.

The quiescent state a deployment converges to is a function of the
*final* bases — not of how the updates were delivered.  Three
relations, checked against a baseline run of the same seeded stream:

* **reorder** — commutative records within a batch (no triple both
  inserted and deleted) and whole batches within a revision can be
  delivered in any order;
* **batching** — collapsing every revision into one merged batch per
  peer changes the advertisement cadence, never the outcome;
* **split** — partitioning each revision's batches across two
  independent injection points (two injector peers) is invisible.

Each relation must preserve quiescent answers, coverage annotations
and the final active-schema digest, in hybrid and ad-hoc deployments.
"""

import pytest

from repro.livedata import (
    UpdateInjector,
    UpdateStream,
    active_schema_digest,
)
from repro.livedata.updates import (
    DeleteTriple,
    InsertTriple,
    RedefineViews,
    UpdateBatch,
)

from .harness import build_adhoc, build_hybrid, make_workload
from .live_harness import _normalize, full_result

SEEDS = [1, 4, 9, 14]
KINDS = ["hybrid", "adhoc"]


def _deploy(kind, workload):
    if kind == "hybrid":
        return build_hybrid(workload)
    return build_adhoc(workload)


def _run_stream(kind, workload, revision_lists, injectors=1):
    """Deliver the given revisions through ``injectors`` independent
    injection points, draining the network after every revision."""
    system = _deploy(kind, workload)
    points = []
    for index in range(injectors):
        injector = UpdateInjector(f"live-injector-{index}")
        injector.join(system.network)
        points.append(injector)
    for batches in revision_lists:
        for position, batch in enumerate(batches):
            points[position % len(points)].send(batch.target, batch)
        system.run()
    return system


def _fingerprint(system, workload):
    """(answers+coverage per query, held-advertisement digest)."""
    answers = []
    for text in workload.queries:
        error, table, coverage = _normalize(
            full_result(system, workload.peer_ids[0], text)
        )
        rows = (
            None
            if table is None
            else sorted(tuple(t.n3() for t in row) for row in table.rows)
        )
        answers.append((error, rows, coverage))
    schema_uri = workload.synthetic.schema.namespace.uri
    if system.super_peers:
        held = next(iter(system.super_peers.values())).sons.advertisements(schema_uri)
        digest = active_schema_digest(held)
    else:
        held = [
            system.peers[holder].sons.advertisements(schema_uri)
            for holder in workload.peer_ids
        ]
        assert all(held), "a holder with no advertisement digests nothing"
        digest = tuple(active_schema_digest(known) for known in held)
    return answers, digest


def _records_commute(batch: UpdateBatch) -> bool:
    """Safe to permute: no triple is both inserted and deleted (view
    redefinitions commute with triple records — the advertisement is
    derived after the whole batch)."""
    inserted = {r.triple for r in batch.updates if isinstance(r, InsertTriple)}
    deleted = {r.triple for r in batch.updates if isinstance(r, DeleteTriple)}
    views = [r for r in batch.updates if isinstance(r, RedefineViews)]
    return not (inserted & deleted) and len(views) <= 1


def _reordered(revisions):
    """Reverse batch order per revision; reverse records where safe."""
    out = []
    for batches in revisions:
        transformed = []
        for batch in reversed(batches):
            if _records_commute(batch):
                batch = UpdateBatch(
                    batch.target, batch.revision, tuple(reversed(batch.updates))
                )
            transformed.append(batch)
        out.append(transformed)
    return out


def _batched(revisions):
    """One merged batch per peer: the whole stream as a single
    revision."""
    merged = {}
    for batches in revisions:
        for batch in batches:
            merged.setdefault(batch.target, []).extend(batch.updates)
    return [
        [
            UpdateBatch(target, 1, tuple(records))
            for target, records in sorted(merged.items())
        ]
    ]


@pytest.mark.tier1
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_reordering_commutative_updates_is_invisible(seed, kind):
    workload = make_workload(seed)
    stream = UpdateStream(
        workload.synthetic.schema, workload.bases, seed=seed, revisions=3
    )
    baseline = _run_stream(kind, workload, stream.revisions)
    transformed = _run_stream(kind, workload, _reordered(stream.revisions))
    assert _fingerprint(baseline, workload) == _fingerprint(
        transformed, workload
    ), f"reorder diverged (seed {seed}, {kind})"


@pytest.mark.tier1
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_batching_updates_is_invisible(seed, kind):
    workload = make_workload(seed)
    stream = UpdateStream(
        workload.synthetic.schema, workload.bases, seed=seed, revisions=3
    )
    baseline = _run_stream(kind, workload, stream.revisions)
    transformed = _run_stream(kind, workload, _batched(stream.revisions))
    assert _fingerprint(baseline, workload) == _fingerprint(
        transformed, workload
    ), f"batching diverged (seed {seed}, {kind})"


@pytest.mark.tier1
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_splitting_injection_points_is_invisible(seed, kind):
    workload = make_workload(seed)
    stream = UpdateStream(
        workload.synthetic.schema, workload.bases, seed=seed, revisions=3
    )
    baseline = _run_stream(kind, workload, stream.revisions)
    transformed = _run_stream(kind, workload, stream.revisions, injectors=2)
    assert _fingerprint(baseline, workload) == _fingerprint(
        transformed, workload
    ), f"split injection diverged (seed {seed}, {kind})"


@pytest.mark.slow
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(20))
def test_metamorphic_sweep(seed, kind):
    """The wide version: all three relations per seed."""
    workload = make_workload(seed)
    stream = UpdateStream(
        workload.synthetic.schema, workload.bases, seed=seed, revisions=3
    )
    baseline = _fingerprint(
        _run_stream(kind, workload, stream.revisions), workload
    )
    for transform in (
        lambda r: _reordered(r),
        lambda r: _batched(r),
        lambda r: r,
    ):
        transformed = _run_stream(kind, workload, transform(stream.revisions))
        assert _fingerprint(transformed, workload) == baseline
    split = _run_stream(kind, workload, stream.revisions, injectors=2)
    assert _fingerprint(split, workload) == baseline
