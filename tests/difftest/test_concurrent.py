"""Concurrent-vs-sequential differential tests.

The oracle: interleaving queries must not change their answers.  Each
(seed, mode) pair serves 8–32 queries through one deployment as
open-loop arrivals whose gaps are far shorter than a query's
latency — so coordinations genuinely overlap, sharing super-peers,
channels and (for repeated texts) the coalescer — and every logical
query's answer must be identical to evaluating the same query on a
*fresh* twin deployment one at a time.

The sweep is 25 seeds x 8 modes = 200 seeded concurrent workloads,
spanning hybrid and ad-hoc architectures, batched and per-binding
shipping, odd batch sizes, admission control and fair scheduling.
"""

import pytest

from repro.config import AdmissionControl

from .harness import (
    build_adhoc,
    build_hybrid,
    concurrent_answers,
    make_workload,
    sequential_twin_answers,
)

SEEDS = list(range(25))

#: Interleaved submissions per workload: 8 for seed 0 up to 32 for
#: seed 24 (cycling over 8 distinct query texts, rotating the
#: coordinating peer).
def _count(seed: int) -> int:
    return 8 + (seed % 25)


def _with_admission(system):
    """Tight concurrency, generous queue: queries park and drain but
    are never refused, so answers must still all arrive intact."""
    system.enable_admission(
        AdmissionControl(max_concurrent=2, max_queued=64, retry_after=5.0)
    )
    return system


def _with_fair_scheduling(system):
    system.enable_fair_scheduling(quantum=0.25)
    return system


#: Row ids predate the single engine and stay as they were, so a row's
#: history remains comparable: ``*-scalar`` selects what is left of that
#: configuration — per-binding shipping (``batch_size=1``) —
#: ``*-vectorized`` the defaults.
#: (mode id, deployment builder, system options, post-build configure)
MODES = [
    ("hybrid-vectorized", build_hybrid, {}, None),
    ("hybrid-scalar", build_hybrid, {"batch_size": 1}, None),
    ("hybrid-batch7", build_hybrid, {"batch_size": 7}, None),
    ("hybrid-admission", build_hybrid, {}, _with_admission),
    ("adhoc-vectorized", build_adhoc, {}, None),
    ("adhoc-scalar", build_adhoc, {"batch_size": 1}, None),
    ("adhoc-batch5", build_adhoc, {"batch_size": 5}, None),
    ("adhoc-fair", build_adhoc, {}, _with_fair_scheduling),
]


def test_sweep_is_large_enough():
    """The acceptance floor: 200 seeded concurrent workloads."""
    assert len(SEEDS) * len(MODES) == 200
    assert all(8 <= _count(seed) <= 32 for seed in SEEDS)


@pytest.mark.parametrize("mode,builder,options,configure", MODES,
                         ids=[m[0] for m in MODES])
@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_matches_sequential(seed, mode, builder, options, configure):
    workload = make_workload(seed, queries=8)
    count = _count(seed)
    system = builder(workload, **options)
    if configure is not None:
        configure(system)
    report, answers = concurrent_answers(
        system, workload, count, arrival_rate=1.5
    )
    expected = sequential_twin_answers(builder, workload, count, **options)

    assert report.count("no-reply") == 0, f"silent queries in {mode} seed {seed}"
    assert report.count("shed") == 0, f"unexpected sheds in {mode} seed {seed}"
    assert report.max_inflight >= 2, (
        f"workload never interleaved ({mode}, seed {seed})"
    )
    for index in range(count):
        result = answers[index]
        assert result is not None, f"query {index} got no reply ({mode}, {seed})"
        twin_table, twin_error = expected[index]
        if twin_error is not None:
            assert result.error, (
                f"query {index}: concurrent answered but sequential twin "
                f"failed with {twin_error!r} ({mode}, seed {seed})"
            )
            continue
        assert not result.error, (
            f"query {index}: concurrent failed with {result.error!r} but "
            f"sequential twin answered ({mode}, seed {seed})"
        )
        assert result.table == twin_table, (
            f"query {index}: concurrent {len(result.table)} rows != "
            f"sequential {len(twin_table)} rows ({mode}, seed {seed})"
        )


def test_dense_workload_keeps_many_in_flight():
    """The interleaving is real: a burst-heavy serving run holds at
    least 8 coordinations in flight at once, and the answers still all
    match the sequential twin."""
    workload = make_workload(4, queries=8)
    system = build_hybrid(workload)
    report, answers = concurrent_answers(
        system, workload, 24, arrival_rate=20.0
    )
    expected = sequential_twin_answers(build_hybrid, workload, 24)
    assert report.max_inflight >= 8
    assert report.count("no-reply") == 0
    for index in range(24):
        twin_table, twin_error = expected[index]
        if twin_error is not None:
            assert answers[index].error
        else:
            assert answers[index].table == twin_table
