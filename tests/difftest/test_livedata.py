"""The live-data oracle wall: incremental vs from-scratch, at scale.

Every scenario drives a seeded update stream (triple inserts/deletes,
RVL view redefinitions) through a live deployment whose peers maintain
their active schemas *incrementally* (delta advertisements, in-place
id-column patching, churn-scoped cache invalidation), with queries
racing the update batches in flight.  At every quiescent revision the
scenario is compared against a from-scratch oracle twin — a fresh
deployment of the current bases with full re-derivation and cold
caches — and the centralized evaluator over the merged bases:

* answers bit-identical (binding multisets),
* coverage annotations identical,
* active-schema digests identical at every holder,
* the standing query's folded delta stream equal to the oracle's
  final table.

The full wall (``-m slow``) runs 204 scenarios: 34 seeds x 6 modes
(hybrid/ad-hoc x default/per-binding/odd batch sizes), three quiescent
revisions each.  Tier-1 keeps a fast cross-section.
"""

import pytest

from repro.rql.evaluator import query as centralized_query

from .harness import build_hybrid, make_workload, merged_graph
from .live_harness import run_live_scenario

WALL_SEEDS = list(range(34))

#: (mode id, system kind, system options).  Row ids predate the single
#: engine: ``*-scalar`` selects what is left of that configuration,
#: per-binding shipping (``batch_size=1``).
MODES = [
    ("hybrid", "hybrid", {}),
    ("hybrid-scalar", "hybrid", {"batch_size": 1}),
    ("hybrid-batch7", "hybrid", {"batch_size": 7}),
    ("adhoc", "adhoc", {}),
    ("adhoc-scalar", "adhoc", {"batch_size": 1}),
    ("adhoc-batch3", "adhoc", {"batch_size": 3}),
]
MODE_IDS = [m[0] for m in MODES]
_BY_ID = {m[0]: m for m in MODES}


@pytest.mark.tier1
def test_wall_is_large_enough():
    """The acceptance floor: at least 200 seeded live scenarios."""
    assert len(WALL_SEEDS) * len(MODES) >= 200


@pytest.mark.slow
@pytest.mark.parametrize("mode,kind,options", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("seed", WALL_SEEDS)
def test_live_matches_oracle_wall(seed, mode, kind, options):
    compared = run_live_scenario(seed, kind, options)
    assert compared >= 6  # 3 revisions x 2 snapshot queries


#: the tier-1 cross-section: every mode at least once, distinct seeds
TIER1_CASES = [
    (seed, _BY_ID[mode])
    for seed, mode in [
        (0, "hybrid"),
        (3, "hybrid-scalar"),
        (5, "hybrid"),
        (8, "hybrid-batch7"),
        (9, "adhoc"),
        (12, "adhoc-scalar"),
        (17, "adhoc"),
        (21, "adhoc-batch3"),
    ]
]


@pytest.mark.tier1
@pytest.mark.parametrize(
    "seed,mode", TIER1_CASES, ids=[f"{m[0]}-s{s}" for s, m in TIER1_CASES]
)
def test_live_matches_oracle_sample(seed, mode):
    _, kind, options = mode
    assert run_live_scenario(seed, kind, options) >= 6


@pytest.mark.tier1
def test_live_scenario_with_hot_update_rate():
    """A 25%-of-base update rate (well past the incremental sweet
    spot) must still converge to the oracle at every quiescent point."""
    assert run_live_scenario(4, "hybrid", rate=0.25) >= 6


@pytest.mark.tier1
def test_live_scenario_with_skewed_per_peer_rates():
    """One hot peer, one cold: per-peer rates drive different delta
    cadence per advertiser."""
    from repro.livedata import LiveDataDriver, UpdateStream

    from .live_harness import assert_digests_fresh

    workload = make_workload(6)
    system = build_hybrid(workload)
    stream = UpdateStream(
        workload.synthetic.schema,
        workload.bases,
        seed=6,
        revisions=3,
        per_peer_rates={"P1": 0.3, "P2": 0.02},
    )
    driver = LiveDataDriver(system, stream)
    for revision in range(1, 4):
        driver.inject(revision - 1)
        system.run()
        assert driver.acked(revision)
        assert_digests_fresh(system, workload)


# ----------------------------------------------------------------------
# top-k: provable channel cancellation
# ----------------------------------------------------------------------
def _run_topk(workload, limit, cancel_enabled):
    # paced streaming: cancellation has teeth
    system = build_hybrid(
        workload, topk_cancel=cancel_enabled, batch_size=4, stream_interval=2.0
    )
    client = system.add_client("C-topk")
    query_id = client.submit(workload.peer_ids[0], workload.queries[0], limit=limit)
    system.run()
    result = client.result(query_id)
    assert result is not None and result.error is None, result
    metrics = system.network.metrics
    return result.table, metrics


@pytest.mark.tier1
@pytest.mark.parametrize("seed", [0, 5, 12, 20])
def test_topk_cancels_channels_and_matches_oracle(seed):
    """The cancellation proof: with top-k cancel on, strictly fewer
    binding batches travel than in the unbounded twin, at least one
    ubQL discard fires, and the k answers are drawn from the oracle's
    answer set (any k distinct rows are a correct unordered top-k).

    The seeds are plans where some channel completes while others are
    still streaming — the shape where cancellation can save wire
    traffic.  (A join whose channels all finish together has nothing
    left to discard; those shapes are covered by the correctness
    assertions of the main wall.)"""
    workload = make_workload(seed, statements_per_segment=30)
    limit = 5
    table_on, metrics_on = _run_topk(workload, limit, True)
    table_off, metrics_off = _run_topk(workload, limit, False)

    oracle = centralized_query(
        workload.queries[0], merged_graph(workload), workload.synthetic.schema
    ).distinct()
    oracle_rows = {tuple(r) for r in oracle.rows}
    expected_k = min(limit, len(oracle_rows))

    assert len(table_on) == expected_k
    assert len(table_off) == expected_k
    assert all(tuple(row) in oracle_rows for row in table_on.rows)
    assert len(oracle_rows) > limit  # otherwise there is nothing to cancel
    assert metrics_on.topk_cancels >= 1
    assert metrics_on.batches_sent < metrics_off.batches_sent, (
        f"cancel sent {metrics_on.batches_sent} batches, "
        f"unbounded twin {metrics_off.batches_sent}"
    )
    assert metrics_off.topk_cancels == 0


@pytest.mark.tier1
def test_topk_with_order_by_never_cancels():
    """ORDER BY needs every candidate row: the early-stop gate must
    stay closed so the sorted top-k stays exact."""
    workload = make_workload(3, statements_per_segment=30)
    system = build_hybrid(
        workload, topk_cancel=True, batch_size=4, stream_interval=2.0
    )
    client = system.add_client("C-ordered")
    query_id = client.submit(
        workload.peer_ids[0], workload.queries[0], limit=3, order_by="V0"
    )
    system.run()
    result = client.result(query_id)
    assert result is not None and result.error is None
    assert system.network.metrics.topk_cancels == 0
    oracle = centralized_query(
        workload.queries[0], merged_graph(workload), workload.synthetic.schema
    ).distinct()
    sorted_rows = sorted(
        oracle.rows, key=lambda r: r[oracle.column_index("V0")].n3()
    )[:3]
    assert sorted(tuple(t.n3() for t in r) for r in result.table.rows) == sorted(
        tuple(t.n3() for t in r) for r in sorted_rows
    )


@pytest.mark.tier1
def test_topk_during_update_storm():
    """Top-k cancellation composes with live updates: inject a
    revision, race a limited query against it, and the answer must be
    k rows from data that existed at some point of the interleaving."""
    from repro.livedata import LiveDataDriver, UpdateStream

    workload = make_workload(11, statements_per_segment=30)
    system = build_hybrid(
        workload, topk_cancel=True, batch_size=4, stream_interval=2.0
    )
    stream = UpdateStream(
        workload.synthetic.schema, workload.bases, seed=11, revisions=1
    )
    driver = LiveDataDriver(system, stream)
    client = system.add_client("C-storm")
    driver.inject(0)
    query_id = client.submit(workload.peer_ids[0], workload.queries[0], limit=4)
    system.run()
    assert driver.acked(1)
    result = client.result(query_id)
    assert result is not None
    assert result.error is None or "no relevant peers" in result.error
