"""Metamorphic properties of the distributed execution pipeline.

Fault-free runs of the same query over the same deployment must return
the same binding multiset regardless of *how* the plan was evaluated:
optimizer rewrites (join/union distribution, same-peer merging),
shipping choices, batch size and gathering versus streaming — alone or
composed with placement — are all answer-preserving transformations.
Coverage annotations on degraded (partial) answers must be invariant
too.
"""

from dataclasses import replace
from functools import partial

import pytest

from repro.core.optimizer import OptimizationTrace
from repro.peers import coordinator
from repro.resilience import RESILIENCE_OFF

from .harness import (
    build_adhoc,
    build_hybrid,
    centralized_answer,
    distributed_answer,
    make_workload,
)

SEEDS = [0, 1, 2, 4]

#: Execution-mode variants that must not change any answer; the
#: ``unoptimized`` ones run the plan exactly as ``build_plan`` built it.
VARIANTS = [
    ("optimized", {}),
    ("unoptimized", {}),
    ("shipping", {"cost_based": True}),
    ("unoptimized-shipping", {"cost_based": True}),
    ("batch-1", {"batch_size": 1}),
    ("batch-7", {"batch_size": 7}),
    ("batch-256", {"batch_size": 256}),
    ("batch-1-unoptimized", {"batch_size": 1}),
]

#: Streaming composed with placement, paced in small chunks so operators
#: really see several chunks per input (also run on the ad-hoc
#: architecture).
STREAMING_VARIANTS = [
    (name, {**options, "batch_size": 3, "stream_interval": 2.0})
    for name, options in (
        ("pipelined", {"pipelined_execution": True}),
        ("pipelined-shipping", {"pipelined_execution": True, "cost_based": True}),
        ("topk-shipping", {"topk_cancel": True, "cost_based": True}),
    )
]
VARIANTS += STREAMING_VARIANTS


def _run_variant(monkeypatch, name, build, run):
    """``run(build())``; an ``unoptimized`` variant swaps ``optimize``
    for an identity stand-in, so the plan runs exactly as
    ``build_plan`` built it (and checks that the stand-in was hit)."""
    planned = []

    def identity(plan, *args, **kwargs):
        planned.append(plan)
        return OptimizationTrace(plan)

    with monkeypatch.context() as patch:
        if "unoptimized" in name:
            patch.setattr(coordinator, "optimize", identity)
        result = run(build())
    if "unoptimized" in name and result is not None:
        assert planned, f"variant {name} never reached the optimizer"
    return result


@pytest.mark.parametrize("seed", SEEDS)
def test_variants_agree_hybrid(seed, monkeypatch):
    workload = make_workload(seed, queries=3)
    via = workload.peer_ids[0]
    for text in workload.queries:
        reference = centralized_answer(workload, text)
        for name, options in VARIANTS:
            actual = _run_variant(
                monkeypatch,
                name,
                partial(build_hybrid, workload, **options),
                partial(distributed_answer, via=via, text=text),
            )
            if actual is None:
                assert len(reference) == 0, (
                    f"variant {name} found no peers, reference has rows "
                    f"(seed {seed}, {text!r})"
                )
                continue
            assert actual == reference, (
                f"variant {name} diverged from the reference "
                f"(seed {seed}, {text!r})"
            )


@pytest.mark.parametrize("seed", [0, 2])
def test_variants_agree_adhoc(seed, monkeypatch):
    workload = make_workload(seed, queries=2)
    via = workload.peer_ids[-1]
    for text in workload.queries:
        reference = centralized_answer(workload, text)
        for name, options in VARIANTS[:6] + STREAMING_VARIANTS:
            actual = _run_variant(
                monkeypatch,
                name,
                partial(build_adhoc, workload, **options),
                partial(distributed_answer, via=via, text=text),
            )
            if actual is None:
                assert len(reference) == 0
                continue
            assert actual == reference, f"adhoc variant {name} diverged (seed {seed})"


@pytest.mark.parametrize("build", [build_hybrid, build_adhoc])
def test_topk_stop_composes_with_placement(build):
    """``LIMIT k`` without ``ORDER BY`` under ``topk_cancel`` forces the
    streaming operators; with placement on, the k rows must still be k
    distinct rows of the full answer."""
    workload = make_workload(1, queries=3)
    (_, options), = [v for v in STREAMING_VARIANTS if v[0] == "topk-shipping"]
    for text in workload.queries:
        reference = centralized_answer(workload, text)
        if not len(reference):
            continue
        system = build(workload, **options)
        table = system.query(workload.peer_ids[0], text, limit=2)
        assert system.network.metrics.topk_cancels == 1
        rows = set(table.project(reference.columns).rows)
        assert len(rows) == len(table) == min(2, len(reference))
        assert rows <= set(reference.rows)


def _partial_result(workload, text, **options):
    """Run one query with graceful degradation on; returns the client's
    QueryResult (table + coverage annotation)."""
    system = build_hybrid(
        workload,
        resilience=replace(RESILIENCE_OFF, partial_results=True),
        **options,
    )
    client = system.add_client()
    query_id = client.submit(workload.peer_ids[0], text)
    system.run()
    result = client.result(query_id)
    assert result is not None
    return result


def test_coverage_annotations_invariant_under_batching():
    """Seed 3 is a vertical layout with 3 peers over 4 chain segments:
    segment 3 has no provider, so a full-chain query degrades to a
    coverage-annotated partial answer.  The annotation and the partial
    table must not depend on batching."""
    workload = make_workload(3, queries=0)
    assert workload.distribution.value == "vertical"
    from repro.workloads.query_gen import chain_query

    text = chain_query(workload.synthetic, start=0, length=4)
    reference = _partial_result(workload, text)
    assert reference.error is None
    assert reference.coverage is not None
    assert reference.coverage.unanswered  # something really was degraded
    for options in ({"batch_size": 1}, {"batch_size": 7}):
        variant = _partial_result(workload, text, **options)
        assert variant.error is None
        assert variant.coverage is not None
        assert variant.coverage.answered == reference.coverage.answered
        assert variant.coverage.unanswered == reference.coverage.unanswered
        assert variant.table == reference.table
