"""Differential tests: distributed execution vs the centralized oracle.

Every (dataset seed, execution mode) pair evaluates a batch of seeded
random queries through a full deployment and compares the binding
multiset against centralized evaluation over the merged bases.  The
sweep totals well over 100 seeded query/dataset comparisons.
"""

import pytest

from .harness import (
    assert_equivalent,
    build_adhoc,
    build_hybrid,
    make_workload,
)

SEEDS = list(range(10))
QUERIES_PER_DATASET = 4

#: Row ids predate the single engine and stay as they were, so a row's
#: history remains comparable: ``*-scalar`` selects what is left of that
#: configuration — per-binding shipping (``batch_size=1``) —
#: ``*-vectorized`` the defaults.
#: (mode id, builder, system options)
MODES = [
    ("hybrid-vectorized", build_hybrid, {}),
    ("hybrid-scalar", build_hybrid, {"batch_size": 1}),
    ("hybrid-smallbatch", build_hybrid, {"batch_size": 7}),
    ("adhoc-vectorized", build_adhoc, {}),
    ("adhoc-scalar", build_adhoc, {"batch_size": 1}),
]


def test_sweep_is_large_enough():
    """The acceptance floor: at least 100 seeded comparisons."""
    assert len(SEEDS) * len(MODES) * QUERIES_PER_DATASET >= 100


@pytest.mark.parametrize("mode,builder,options", MODES, ids=[m[0] for m in MODES])
@pytest.mark.parametrize("seed", SEEDS)
def test_distributed_matches_centralized(seed, mode, builder, options):
    workload = make_workload(seed, queries=QUERIES_PER_DATASET)
    system = builder(workload, **options)
    via = workload.peer_ids[seed % len(workload.peer_ids)]
    compared = 0
    for text in workload.queries:
        assert_equivalent(workload, system, via, text)
        compared += 1
    assert compared == QUERIES_PER_DATASET


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_single_peer_deployment_matches(seed):
    """Degenerate topology: one peer holds everything."""
    workload = make_workload(seed, peers=1, queries=QUERIES_PER_DATASET)
    system = build_hybrid(workload)
    for text in workload.queries:
        assert_equivalent(workload, system, workload.peer_ids[0], text)


@pytest.mark.parametrize("batch_size", [1, 3, 1024])
def test_extreme_batch_sizes_match(batch_size):
    """Fragmentation edge cases: one binding per packet up to one
    packet far larger than any result."""
    workload = make_workload(2, queries=QUERIES_PER_DATASET)
    system = build_hybrid(workload, batch_size=batch_size)
    for text in workload.queries:
        assert_equivalent(workload, system, workload.peer_ids[0], text)
