"""Sim-vs-live differential validation of the transport stack.

The tentpole oracle: the protocol stack must not be able to tell the
transports apart.  For any seeded cluster workload, every query
evaluated over a *live* deployment (real OS processes exchanging
length-prefixed JSON frames over localhost TCP) must produce exactly
the answer set — and exactly the coverage annotation — that the same
workload produces in-sim on the virtual clock.

Five dataset seeds cycle the distribution spectrum (vertical,
horizontal, mixed); each cluster serves twelve sequential queries
rotating the coordinating peer, giving 60 seeded workload queries
compared pairwise (>= the 50 the acceptance bar asks for).

The kill scenario closes the chaos loop: SIGTERMing a peer process
must degrade queries to coverage-annotated partial answers exactly as
``fail_peer`` does in-sim, and the cluster must still shut down
cleanly with merged artifacts.
"""

import json

import pytest

from repro.deploy import ClusterSpec, LiveCluster, build_sim_system, build_workload

#: Seeds 0..4 cover VERTICAL, HORIZONTAL, MIXED, VERTICAL, HORIZONTAL.
SEEDS = (0, 1, 2, 3, 4)
QUERIES_PER_CLUSTER = 12


def _sequence(spec, workload):
    """The (via, text) sequence both deployments serve."""
    peer_ids = spec.peer_ids()
    return [
        (peer_ids[i % len(peer_ids)], workload.queries[i % len(workload.queries)])
        for i in range(QUERIES_PER_CLUSTER)
    ]


def _sim_answers(spec, workload):
    """The in-sim twin's answers, via the same client-submit path the
    live launcher uses (answers do not depend on which client asks)."""
    system = build_sim_system(spec, workload)
    answers = []
    for via, text in _sequence(spec, workload):
        client = system.add_client()
        query_id = client.submit(via, text)
        system.network.run()
        result = client.result(query_id)
        assert result is not None, f"sim query {query_id} never answered"
        answers.append(result)
    return answers


def _describe(result):
    rows = None if result.table is None else len(result.table)
    return (result.error, rows, result.coverage)


@pytest.mark.parametrize("seed", SEEDS)
def test_live_cluster_matches_sim_exactly(seed, tmp_path):
    spec = ClusterSpec(seed=seed, peers=3, super_peers=1)
    workload = build_workload(spec)
    expected = _sim_answers(spec, workload)

    cluster = LiveCluster(spec, tmp_path / f"run-{seed}")
    try:
        cluster.start()
        actual = [
            cluster.query(via, text) for via, text in _sequence(spec, workload)
        ]
    finally:
        summary = cluster.shutdown()

    assert len(actual) == len(expected)
    for index, (sim, live) in enumerate(zip(expected, actual)):
        context = f"seed {seed} query {index}: sim {_describe(sim)} vs live {_describe(live)}"
        assert (sim.error is None) == (live.error is None), context
        if sim.error is not None:
            assert sim.error == live.error, context
        else:
            assert live.table == sim.table, context
        assert live.coverage == sim.coverage, context
    # every process exited cleanly and left mergeable artifacts
    assert all(code == 0 for code in summary["exit_codes"].values()), summary
    assert "merged.metrics.prom" in summary["artifacts"]
    assert "merged.traces.json" in summary["artifacts"]


def test_mid_run_kill_degrades_to_partial_coverage(tmp_path):
    """SIGTERM of a live peer process == ``fail_peer`` in-sim: the next
    query degrades to a coverage-annotated partial answer."""
    spec = ClusterSpec(seed=0, peers=3, super_peers=1, resilient=True)
    workload = build_workload(spec)
    victim, via = "P2", "P1"
    text = workload.queries[0]

    # the in-sim chaos twin: fail the victim, then pose the query
    sim = build_sim_system(spec, workload)
    healthy = sim.query(via, text)
    sim.network.fail_peer(victim)
    client = sim.add_client()
    query_id = client.submit(via, text)
    sim.network.run()
    sim_result = client.result(query_id)
    assert sim_result.coverage is not None, "sim twin did not degrade"
    assert not sim_result.coverage.is_complete

    cluster = LiveCluster(spec, tmp_path / "kill-run")
    try:
        cluster.start()
        live_healthy = cluster.query(via, text)
        assert live_healthy.table == healthy
        cluster.kill_peer(victim)
        cluster.processes[victim].wait(timeout=30)
        live_result = cluster.query(via, text)
    finally:
        summary = cluster.shutdown()

    assert live_result.error is None, live_result.error
    assert live_result.coverage is not None, "live kill did not degrade"
    assert not live_result.coverage.is_complete
    assert live_result.coverage == sim_result.coverage
    assert live_result.table == sim_result.table
    # the killed peer exited gracefully on SIGTERM, like everyone else
    assert all(code == 0 for code in summary["exit_codes"].values()), summary
    assert summary["killed"] == [victim]

    # merged exposition keeps per-process series distinguishable
    merged = (cluster.outdir / "merged.metrics.prom").read_text()
    for node_id in ("P1", "P3", "SP1", victim):
        assert f'peer_id="{node_id}"' in merged
    assert 'transport="asyncio"' in merged
    report = json.loads((cluster.outdir / "report.json").read_text())
    assert report["killed"] == [victim]
