"""Sim-vs-live differential validation of dynamic membership.

The churn oracle: a seeded membership scenario — crash a peer
mid-workload, recover it from durable state, bring a fresh joiner in —
must produce exactly the same answers, the same coverage annotations
and the same membership accounting whether it runs in-sim on the
virtual clock or as real OS processes over localhost TCP.

Five dataset seeds cycle the distribution spectrum; each seed's
scenario — twelve sequential queries through a scripted churn schedule
(healthy → crash → degraded → supervised-style restart → healed →
mid-run join → grown) — is played on both targets, giving 60 seeded
churn queries compared pairwise (>= the 50 the acceptance bar asks
for).  A sim-only sweep
then runs a crash/rejoin cycle across many more seeds and checks the
rejoined peer's durable state digests byte-equal against a
never-crashed twin.
"""

import itertools
import json

import pytest

from repro.deploy import ClusterSpec, LiveCluster, build_sim_system, build_workload
from repro.durability import peer_state_digest
from repro.errors import PeerError
from repro.membership import MembershipManager
from repro.scenario import Crash, Join, Query, Restart, Scenario, play

#: Seeds 0..4 cover VERTICAL, HORIZONTAL, MIXED, VERTICAL, HORIZONTAL.
SEEDS = (0, 1, 2, 3, 4)
VICTIM = "P2"
JOINER = "P4"

#: The scripted 12-query churn scenario: a peer id is a query through
#: it, the workload's queries in rotation.
#:   q0-3  healthy 3-peer cluster
#:   q4-6  degraded: the victim crashed abruptly after q3
#:   q7-8  healed: the victim recovered from durable state after q6
#:   q9-11 grown: a fresh joiner entered after q8
SCRIPT = ("P1", "P2", "P3", "P1",   # healthy
          Crash(VICTIM),
          "P1", "P3", "P1",          # victim down
          Restart(VICTIM),
          "P2", "P3",                # victim back (and coordinating)
          Join(JOINER),
          "P4", "P1", "P2")          # joiner in rotation


def _spec(seed):
    return ClusterSpec(seed=seed, peers=3, super_peers=1,
                       resilient=True, joiners=1)


def _scenario(workload):
    texts = itertools.cycle(workload.queries)
    return Scenario(
        Query(step, next(texts)) if isinstance(step, str) else step
        for step in SCRIPT
    )


def _describe(result):
    rows = None if result.table is None else len(result.table)
    return (result.error, rows, result.coverage)


def _sim_answers(spec, workload, scenario):
    """The in-sim twin: the same scenario over a durable deployment."""
    system = build_sim_system(spec, workload)
    MembershipManager(system).attach_all()
    answers = []
    for outcome in play(scenario, system, bases=workload.bases):
        assert outcome.result is not None, (
            f"sim query {outcome.query_id} never answered"
        )
        answers.append(outcome.result)
    return answers


@pytest.mark.parametrize("seed", SEEDS)
def test_live_churn_matches_sim_exactly(seed, tmp_path):
    spec = _spec(seed)
    workload = build_workload(spec)
    scenario = _scenario(workload)
    expected = _sim_answers(spec, workload, scenario)

    cluster = LiveCluster(spec, tmp_path / f"churn-{seed}",
                          statedir=tmp_path / f"churn-{seed}" / "state")
    playing = play(scenario, cluster)
    try:
        cluster.start()
        actual = [outcome.result for outcome in playing]
    finally:
        summary = cluster.shutdown()

    assert len(actual) == len(expected)
    for index, (sim, live) in enumerate(zip(expected, actual)):
        context = (f"seed {seed} query {index}: "
                   f"sim {_describe(sim)} vs live {_describe(live)}")
        assert (sim.error is None) == (live.error is None), context
        if sim.error is not None:
            assert sim.error == live.error, context
        else:
            assert live.table == sim.table, context
        assert live.coverage == sim.coverage, context
    # membership accounting in the run report
    assert summary["killed"] == [VICTIM]
    assert summary["restarts"] == [VICTIM]
    assert summary["joined"] == [JOINER]
    # the SIGKILL'd incarnation reports the kill; the restarted one (and
    # every survivor) exits 0 on shutdown
    assert summary["first_exit_codes"][VICTIM] == -9, summary
    assert all(code == 0 for code in summary["exit_codes"].values()), summary


def test_sigkill_without_restart_still_merges_artifacts(tmp_path):
    """An abruptly killed process exports nothing, but the survivors'
    artifacts still merge and every per-process series stays
    distinguishable (the satellite contract for SIGKILL runs)."""
    spec = ClusterSpec(seed=0, peers=3, super_peers=1, resilient=True)
    workload = build_workload(spec)
    cluster = LiveCluster(spec, tmp_path / "sigkill-run")
    try:
        cluster.start()
        healthy = cluster.query("P1", workload.queries[0])
        assert healthy.error is None
        cluster.kill_peer(VICTIM, sig="kill")
        cluster.processes[VICTIM].wait(timeout=30)
        degraded = cluster.query("P1", workload.queries[0])
        assert degraded.error is None
    finally:
        summary = cluster.shutdown()
    assert summary["exit_codes"][VICTIM] == -9
    survivors = [n for n in summary["exit_codes"] if n != VICTIM]
    assert all(summary["exit_codes"][n] == 0 for n in survivors), summary
    assert "merged.metrics.prom" in summary["artifacts"]
    merged = (cluster.outdir / "merged.metrics.prom").read_text()
    for node_id in survivors:
        assert f'peer_id="{node_id}"' in merged
    assert f'peer_id="{VICTIM}"' not in merged  # no export from a SIGKILL
    report = json.loads((cluster.outdir / "report.json").read_text())
    assert report["killed"] == [VICTIM]


@pytest.mark.parametrize("seed", range(10))
def test_crash_rejoin_twin_equivalence_in_sim(seed):
    """Across further seeds: after a crash/recover cycle the deployment
    answers exactly like a twin that never churned, and the rejoined
    peer's membership-relevant state digests byte-equal its twin's."""
    spec = ClusterSpec(seed=seed, peers=3, super_peers=1, resilient=True)
    workload = build_workload(spec)

    churned = build_sim_system(spec, workload)
    MembershipManager(churned).attach_all()
    twin = build_sim_system(spec, workload)

    list(play(Scenario((Crash(VICTIM), Restart(VICTIM))), churned))

    def outcome(system, via, text):
        # some seeded queries are unanswerable by construction; that
        # verdict must match between the twins just like the rows do
        try:
            return ("rows", system.query(via, text))
        except PeerError as exc:
            return ("error", str(exc).split(": ", 1)[-1])

    for index, text in enumerate(workload.queries):
        via = spec.peer_ids()[index % spec.peers]
        churned_outcome = outcome(churned, via, text)
        twin_outcome = outcome(twin, via, text)
        assert churned_outcome == twin_outcome, (
            f"seed {seed} query {index} diverged after rejoin"
        )

    def digest(system, peer_id):
        peer = system.peers[peer_id]
        return peer_state_digest(
            peer.base.graph, peer.base.views,
            peer.base.active_schema(peer_id),
            (), peer.sons.quarantine.peers,
        )

    assert digest(churned, VICTIM) == digest(twin, VICTIM)
