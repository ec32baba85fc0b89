"""Unit tests for continuous (standing) queries and top-k cancel."""

from repro.config import reconfigure
from repro.livedata import LiveDataDriver, UpdateStream
from repro.livedata.updates import RefreshStanding
from repro.obs.telemetry import FlightRecorder
from repro.rql.evaluator import query as centralized_query
from tests.difftest.harness import build_hybrid, make_workload
from tests.difftest.live_harness import merged_current


def _deployment(seed=5):
    workload = make_workload(seed)
    system = build_hybrid(workload)
    return workload, system


class TestStandingQueries:
    def test_initial_snapshot_is_pushed(self):
        workload, system = _deployment()
        client = system.add_client("C")
        query_id = client.subscribe("P1", workload.queries[0])
        system.run()
        assert query_id in client.continuous
        assert len(client.continuous_updates[query_id]) == 1
        assert client.continuous_updates[query_id][0].revision == 0

    def test_refresh_without_data_change_pushes_nothing(self):
        workload, system = _deployment()
        client = system.add_client("C")
        query_id = client.subscribe("P1", workload.queries[0])
        system.run()
        client.send("P1", RefreshStanding(1))
        system.run()
        assert len(client.continuous_updates[query_id]) == 1  # snapshot only

    def test_update_then_refresh_pushes_a_folding_delta(self):
        workload, system = _deployment()
        client = system.add_client("C")
        text = workload.queries[0]
        query_id = client.subscribe("P1", text)
        system.run()
        stream = UpdateStream(
            workload.synthetic.schema,
            workload.bases,
            seed=5,
            revisions=1,
            rate=0.3,
        )
        driver = LiveDataDriver(system, stream)
        driver.inject(0)
        system.run()
        driver.refresh_standing(["P1"], 1)
        system.run()
        expected = centralized_query(
            text,
            merged_current(system, workload.peer_ids),
            workload.synthetic.schema,
        ).distinct()
        assert client.continuous[query_id] == expected

    def test_cancel_stops_pushes(self):
        workload, system = _deployment()
        client = system.add_client("C")
        query_id = client.subscribe("P1", workload.queries[0])
        system.run()
        client.unsubscribe("P1", query_id)
        system.run()
        stream = UpdateStream(
            workload.synthetic.schema,
            workload.bases,
            seed=5,
            revisions=1,
            rate=0.3,
        )
        driver = LiveDataDriver(system, stream)
        driver.inject(0)
        system.run()
        driver.refresh_standing(["P1"], 1)
        system.run()
        assert len(client.continuous_updates[query_id]) == 1  # snapshot only

    def test_malformed_standing_query_reports_an_error(self):
        _, system = _deployment()
        client = system.add_client("C")
        query_id = client.subscribe("P1", "THIS IS NOT RQL")
        system.run()
        assert query_id in client.continuous_errors

    def test_burst_of_refreshes_queues_revisions(self):
        """Refreshes arriving faster than evaluations must all be
        served, in order (pending_revisions drain)."""
        workload, system = _deployment()
        client = system.add_client("C")
        query_id = client.subscribe("P1", workload.queries[0])
        system.run()
        for revision in (1, 2, 3):
            client.send("P1", RefreshStanding(revision))
        system.run()
        standing = system.peers["P1"]._standing[query_id]
        assert standing.pending_revisions == []
        assert not standing.evaluating

    def test_continuous_push_metric_counts(self):
        workload, system = _deployment()
        client = system.add_client("C")
        client.subscribe("P1", workload.queries[0])
        system.run()
        assert system.network.metrics.continuous_pushes >= 1


class TestTopKCancelGates:
    def test_disabled_by_default(self):
        workload, system = _deployment(0)
        client = system.add_client("C")
        query_id = client.submit("P1", workload.queries[0], limit=3)
        system.run()
        assert client.result(query_id).error is None
        assert system.network.metrics.topk_cancels == 0

    def test_no_limit_means_no_cancel(self):
        workload, system = _deployment(0)
        for peer_id in workload.peer_ids:
            reconfigure(system.peers[peer_id], topk_cancel=True, stream_chunk_rows=2)
        client = system.add_client("C")
        query_id = client.submit("P1", workload.queries[0])
        system.run()
        assert client.result(query_id).error is None
        assert system.network.metrics.topk_cancels == 0

    def test_cancel_emits_flight_recorder_event(self):
        workload, system = _deployment(0)
        recorder = FlightRecorder(clock=lambda: system.network.now)
        system.network.flight_recorder = recorder
        for peer_id in workload.peer_ids:
            reconfigure(system.peers[peer_id], topk_cancel=True, stream_chunk_rows=4)
        client = system.add_client("C")
        query_id = client.submit("P1", workload.queries[0], limit=5)
        system.run()
        assert client.result(query_id).error is None
        events = recorder.events(kind="topk_cancel")
        assert events and events[0]["peer"] == "P1"
