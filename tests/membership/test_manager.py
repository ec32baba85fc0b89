"""The membership manager over a simulated hybrid deployment."""

import pytest

from repro.deploy import ClusterSpec, build_sim_system, build_workload
from repro.durability import FileStore
from repro.membership import MembershipManager
from repro.scenario import Crash, Join, Leave, Restart, Scenario, play


@pytest.fixture
def deployment():
    spec = ClusterSpec(seed=0, peers=3, super_peers=1, resilient=True, joiners=1)
    workload = build_workload(spec)
    system = build_sim_system(spec, workload)
    manager = MembershipManager(system)
    manager.attach_all()
    return spec, workload, system, manager


def _query(system, via, text):
    client = system.add_client()
    query_id = client.submit(via, text)
    system.network.run()
    result = client.result(query_id)
    assert result is not None
    return result


class TestCrashRejoin:
    def test_rejoin_restores_full_answers(self, deployment):
        spec, workload, system, manager = deployment
        text = workload.queries[0]
        healthy = _query(system, "P1", text)
        assert healthy.coverage is None

        manager.crash("P2")
        degraded = _query(system, "P1", text)
        assert degraded.coverage is not None
        assert "P2" in degraded.coverage.excluded_peers

        recovered = manager.rejoin("P2")
        system.network.run()
        assert recovered.found
        healed = _query(system, "P1", text)
        assert healed.error is None and healed.coverage is None
        assert len(healed.table) == len(healthy.table)

    def test_recovered_peer_coordinates_in_its_own_id_space(self, deployment):
        """Recovery hands the peer a fresh base, whose scans start a
        fresh id space unless the id space is the peer's.  Regression:
        the channel manager kept translating arriving streams into the
        pre-crash base's dictionary, so finalisation decoded foreign
        ids (IndexError, or silently the wrong term)."""
        spec, workload, system, manager = deployment
        healthy = [_query(system, "P2", text) for text in workload.queries]
        assert all(r.error is None and len(r.table) > 0 for r in healthy)

        manager.crash("P2")
        system.network.run()
        manager.rejoin("P2")
        system.network.run()
        for text, before in zip(workload.queries, healthy):
            healed = _query(system, "P2", text)
            assert healed.error is None
            assert healed.table == before.table

    def test_rejoin_counts_metrics(self, deployment):
        spec, workload, system, manager = deployment
        manager.crash("P2")
        system.network.run()
        manager.rejoin("P2")
        system.network.run()
        metrics = system.network.metrics
        assert metrics.recoveries == 1
        assert metrics.rejoins == 1

    def test_rejoin_lifts_super_peer_quarantine(self, deployment):
        spec, workload, system, manager = deployment
        super_peer = system.super_peers["SP1"]
        manager.crash("P2")
        super_peer.sons.suspect("P2")  # the failure detector's verdict
        assert super_peer.sons.quarantine.is_quarantined("P2")
        manager.rejoin("P2")
        system.network.run()
        assert not super_peer.sons.quarantine.is_quarantined("P2")

    def test_rejoin_lifts_coordinator_quarantine_via_broadcast(self, deployment):
        """The super-peer rebroadcasts a rejoin-flagged advertisement to
        the SON's other members, so quarantines local to coordinators
        lift through the message plane (works on any transport)."""
        spec, workload, system, manager = deployment
        coordinator = system.peers["P1"]
        manager.crash("P2")
        for text in workload.queries:
            _query(system, "P1", text)
        assert coordinator.sons.quarantine.is_quarantined("P2")
        manager.rejoin("P2")
        system.network.run()
        assert not coordinator.sons.quarantine.is_quarantined("P2")


class TestJoinLeave:
    def test_mid_run_join_serves_queries(self, deployment):
        spec, workload, system, manager = deployment
        manager.join("P4", workload.bases["P4"], "SP1")
        system.network.run()
        assert system.network.metrics.joins >= 4
        result = _query(system, "P4", workload.queries[0])
        assert result.error is None

    def test_graceful_leave_counts_goodbyes(self, deployment):
        spec, workload, system, manager = deployment
        manager.leave("P3")
        system.network.run()
        assert system.network.metrics.goodbyes >= 1
        # the super-peer no longer routes to the departed peer
        super_peer = system.super_peers["SP1"]
        assert super_peer.sons.sons_of("P3") == []

    def test_leave_snapshots_before_dark(self, deployment):
        spec, workload, system, manager = deployment
        manager.leave("P3")
        assert manager.stores["P3"].recover().found


class TestScheduleDriving:
    def test_apply_dispatches_all_kinds(self, deployment):
        spec, workload, system, manager = deployment
        scenario = Scenario((Crash("P2"), Restart("P2"), Join("P4"), Leave("P3")))
        assert list(play(scenario, system, bases=workload.bases)) == []
        metrics = system.network.metrics
        assert metrics.recoveries == 1 and metrics.goodbyes >= 1
        result = _query(system, "P1", workload.queries[0])
        assert result.error is None

    def test_generated_schedule_replays_end_to_end(self, deployment):
        spec, workload, system, manager = deployment
        scenario = Scenario.generate(
            4, spec.peer_ids(), joiners=spec.joiner_ids(), horizon=3000,
            leave_rate=0.0005, crash_rate=0.002, join_rate=0.002,
        )
        assert len(scenario)
        list(play(scenario, system, bases=workload.bases))
        active = set(spec.peer_ids())
        for event in scenario:
            if isinstance(event, (Join, Restart)):
                active.add(event.peer)
            else:
                active.discard(event.peer)
        result = _query(system, sorted(active)[0], workload.queries[0])
        assert result.error is None


class TestFileBackedStores:
    def test_manager_with_file_stores(self, deployment, tmp_path):
        spec, workload, _, _ = deployment
        system = build_sim_system(spec, workload)
        manager = MembershipManager(
            system, store_factory=lambda peer_id: FileStore(tmp_path / peer_id)
        )
        manager.attach_all()
        manager.crash("P2")
        system.network.run()
        recovered = manager.rejoin("P2")
        system.network.run()
        assert recovered.found
        assert (tmp_path / "P2" / "snapshot.json").exists()
        result = _query(system, "P1", workload.queries[0])
        assert result.error is None and result.coverage is None
