"""``repro.scenario``: a scenario that cannot happen is refused before
anything runs, on either kind of target, and one that can is played in
the order it says."""

import random

import pytest

from repro.deploy import ClusterSpec, LiveCluster
from repro.livedata import LiveDataDriver, UpdateStream
from repro.scenario import (
    Crash,
    Heal,
    Heartbeat,
    Join,
    Leave,
    Partition,
    Query,
    Restart,
    Scenario,
    Update,
    play,
)
from repro.systems import AdhocSystem, HybridSystem
from repro.workloads import PAPER_QUERY
from repro.workloads.paper import paper_peer_bases, paper_schema


def _paper_system():
    system = HybridSystem(paper_schema())
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    system.run()
    return system


@pytest.mark.parametrize("events, complaint", [
    ((Restart("P2"),), "P2 is not down"),
    ((Crash("P2"), Restart("P2"), Restart("P2")), "P2 is not down"),
    ((Crash("P2", at=50.0), Restart("P2", at=10.0)),
     "P2 recovers at 10.0, at or before its crash at 50.0"),
    ((Crash("P2", at=50.0), Restart("P2", at=50.0)),
     "P2 recovers at 50.0, at or before its crash at 50.0"),
    ((Crash("P2"), Restart("P2", at=9.0)), "P2 is not down"),
    ((Crash("P2", mid_query=True),), "no query follows it"),
    ((Crash("P2", at=1.0, mid_query=True), Query("P1", "q")), "not both"),
    (("P2",), "not a scenario event"),
], ids=["restart-never-down", "restart-twice", "recovery-before-crash",
        "recovery-at-crash", "restart-on-another-lane", "dangling-mid-query",
        "armed-and-mid-query", "not-an-event"])
def test_impossible_timeline_refused_at_construction(events, complaint):
    with pytest.raises(ValueError, match=complaint):
        Scenario(events)


def test_restart_after_leave_or_crash_is_accepted():
    Scenario((Leave("P3"), Crash("P2"), Restart("P2"), Restart("P3")))
    Scenario((Crash("P2", at=5.0), Restart("P2", at=9.0)))


@pytest.mark.parametrize("options, complaint", [
    (dict(count=0, rate=1.0), "count must be >= 1"),
    (dict(count=3, rate=0.0), "rate must be positive"),
    (dict(count=3, rate=-1.0), "rate must be positive"),
    (dict(count=3, rate=1.0, burst=0), "burst must be >= 1"),
], ids=["no-queries", "zero-rate", "negative-rate", "empty-burst"])
def test_arrivals_refuse_degenerate_load(options, complaint):
    with pytest.raises(ValueError, match=complaint):
        Scenario.arrivals([Query("P1", "q")], seed=0, **options)


def test_arrivals_are_seeded_poisson_bursts():
    catalog = [Query("P1", "a"), Query("P2", "b", limit=3)]
    load = Scenario.arrivals(catalog, 5, rate=0.5, seed=7, burst=2, start=10.0)
    rng = random.Random(7)
    first = rng.expovariate(0.5)
    second = first + rng.expovariate(0.5)
    third = second + rng.expovariate(0.5)
    assert [query.at for query in load] == [
        10.0 + first, 10.0 + first, 10.0 + second, 10.0 + second, 10.0 + third,
    ]
    assert [(q.via, q.text, q.limit) for q in load] == [
        ("P1", "a", None), ("P2", "b", 3), ("P1", "a", None), ("P2", "b", 3),
        ("P1", "a", None),
    ]


class TestSimTarget:
    @pytest.mark.parametrize("events, complaint", [
        ((Crash("P9"),), "Crash names unknown peer 'P9'"),
        ((Query("P9", PAPER_QUERY),), "Query names unknown peer 'P9'"),
        ((Query("SP1", PAPER_QUERY),), "Query names unknown peer 'SP1'"),
        ((Partition({"P1"}, {"P9"}),), "Partition names unknown peer 'P9'"),
        ((Join("P5"),), "Join names unknown peer 'P5'"),
        ((Join("P2"),), "Join names unknown peer 'P2'"),
        ((Update(1),), "cannot perform Update"),
    ], ids=["crash-unknown", "query-unknown", "query-via-super-peer",
            "partition-unknown", "join-without-base", "join-a-member",
            "update-without-driver"])
    def test_refused_before_anything_runs(self, events, complaint):
        system = _paper_system()
        before = (system.network.now, len(system.clients))
        with pytest.raises(ValueError, match=complaint):
            play(Scenario(events), system)
        assert (system.network.now, len(system.clients)) == before

    def test_adhoc_deployment_cannot_join(self):
        system = AdhocSystem(paper_schema())
        system.add_peer("P1", paper_peer_bases()["P1"], ())
        with pytest.raises(ValueError, match="AdhocSystem cannot perform Join"):
            play(Scenario((Join("P5"),)), system,
                 bases={"P5": paper_peer_bases()["P2"]})

    def test_mid_query_event_overlaps_the_query(self):
        system = _paper_system()
        seen = []

        def on_event(event):
            # applied after the submit, before the answer was awaited
            seen.append((event, system.network.pending_events() > 0))

        crash = Crash("P2", mid_query=True)
        (outcome,) = play(
            Scenario((crash, Query("P1", PAPER_QUERY))), system, on_event=on_event
        )
        assert seen == [(crash, True)]
        assert system.network.is_down("P2")
        assert outcome.via_peer == "P1" and outcome.result is not None

    def test_sequence_join_leave_partition_heal(self):
        system = _paper_system()
        bases = {"P5": paper_peer_bases()["P2"]}
        scenario = Scenario((
            Join("P5"), Leave("P3"), Partition({"P1"}, {"P4"}), Heal({"P4"}, {"P1"}),
            Heartbeat(), Query("P5", PAPER_QUERY),
        ))
        (outcome,) = play(scenario, system, bases=bases)
        assert "P5" in system.peers and system.network.is_down("P3")
        assert not system.network.severed("P1", "P4")
        assert outcome.status == "full"

    def test_armed_and_in_sequence_queries_yield_in_scenario_order(self):
        system = _paper_system()
        now = system.network.now
        scenario = Scenario((
            Query("P1", PAPER_QUERY, at=now + 50.0),
            Query("P2", PAPER_QUERY),
            Query("P3", PAPER_QUERY, at=now + 1.0),
        ))
        outcomes = list(play(scenario, system))
        assert [o.via_peer for o in outcomes] == ["P1", "P2", "P3"]
        late, in_sequence, early = outcomes
        # armed ones were submitted on the clock without waiting; the
        # in-sequence one after both had been answered
        assert (early.submitted_at, late.submitted_at) == (now + 1.0, now + 50.0)
        assert in_sequence.submitted_at >= late.finished_at > early.finished_at
        assert all(o.answered and o.latency > 0 for o in outcomes)

    def test_update_through_the_driver(self):
        system = _paper_system()
        stream = UpdateStream(paper_schema(), paper_peer_bases(), seed=1,
                              revisions=1, rate=0.2)
        driver = LiveDataDriver(system, stream)
        assert list(play(Scenario((Update(1),)), system, updates=driver)) == []
        assert driver.acked(1)


class TestLiveTarget:
    @pytest.mark.parametrize("events, complaint", [
        ((Partition({"P1"}, {"P2"}),), "LiveCluster cannot perform Partition"),
        ((Heal({"P1"}, {"P2"}),), "LiveCluster cannot perform Heal"),
        ((Leave("P2"),), "LiveCluster cannot perform Leave"),
        ((Heartbeat(),), "LiveCluster cannot perform Heartbeat"),
        ((Crash("P2", at=6.0),), "plays events in sequence"),
        ((Query("P1", "q", at=6.0),), "plays events in sequence"),
        ((Crash("P9"),), "Crash names unknown peer 'P9'"),
        ((Join("P2"),), "Join names unknown peer 'P2'"),
        ((Query("P9", "q"),), "Query names unknown peer 'P9'"),
        ((Update(1),), "cannot perform Update"),
    ], ids=["partition", "heal", "leave", "heartbeat", "armed", "armed-query",
            "crash-unknown", "join-a-member", "query-unknown",
            "update-without-driver"])
    def test_refused_before_any_process_is_spawned(self, tmp_path, events, complaint):
        spec = ClusterSpec(seed=0, peers=3, super_peers=1, joiners=1)
        cluster = LiveCluster(spec, tmp_path / "run")
        try:
            with pytest.raises(ValueError, match=complaint):
                play(Scenario(events), cluster)
            assert cluster.processes == {}
            assert not (tmp_path / "run").exists()
        finally:
            cluster.transport.close()
