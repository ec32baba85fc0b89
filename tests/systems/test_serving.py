"""Tests for concurrent serving: admission control, deadlines, fair
scheduling and the workload driver, on both architectures."""

import pytest

from repro.config import PeerConfig
from repro.systems import AdhocSystem, HybridSystem
from repro.workload_engine import AdmissionControl, WorkloadSpec
from repro.workloads.paper import PAPER_QUERY, adhoc_scenario, hybrid_scenario


@pytest.fixture
def system():
    return HybridSystem.from_scenario(hybrid_scenario())


def _spec(count, **overrides):
    options = dict(
        queries=(("P1", PAPER_QUERY),),
        count=count,
        mode="open",
        arrival_rate=1.0,
        clients=2,
    )
    options.update(overrides)
    return WorkloadSpec(**options)


class TestServe:
    def test_open_loop_answers_everything(self, system):
        report = system.serve(_spec(6))
        summary = report.summary()
        assert summary["offered"] == 6
        assert summary["completed"] == 6
        assert summary["silent"] == 0
        assert all(o.rows == 6 for o in report.outcomes)

    def test_closed_loop_answers_everything(self, system):
        report = system.serve(_spec(6, mode="closed", clients=3, think_time=2.0))
        assert report.summary()["completed"] == 6

    def test_adhoc_serves_too(self):
        system = AdhocSystem.from_scenario(adhoc_scenario())
        system.discover_all()
        report = system.serve(_spec(4))
        assert report.summary()["completed"] == 4

    def test_burst_interleaves_queries(self, system):
        report = system.serve(_spec(8, burst_size=8))
        assert report.summary()["max_inflight"] >= 8
        assert report.summary()["completed"] == 8

    def test_driver_injects_mid_run(self, system):
        """Open-loop arrivals land while earlier queries are still in
        flight: submissions are spread over virtual time, not batched
        up front."""
        report = system.serve(_spec(6, arrival_rate=0.5))
        submitted = {o.submitted_at for o in report.outcomes}
        assert len(submitted) > 1


class TestAdmissionControl:
    def test_overflow_is_parked_then_drained(self, system):
        system.enable_admission(
            AdmissionControl(max_concurrent=1, max_queued=32, retry_after=5.0)
        )
        report = system.serve(_spec(6, burst_size=6))
        assert report.summary()["completed"] == 6
        assert report.summary()["shed"] == 0
        # the coordinator's queue was actually exercised
        assert system.network.metrics.queue_depth_histogram.count > 0

    def test_saturation_sheds_with_retry_after(self):
        # cold caches so repeated texts cannot coalesce behind a leader
        system = HybridSystem.from_scenario(
            hybrid_scenario(), config=PeerConfig(cache_enabled=False)
        )
        system.enable_admission(
            AdmissionControl(max_concurrent=1, max_queued=1, retry_after=7.0)
        )
        report = system.serve(_spec(8, burst_size=8, resubmit_sheds=False))
        summary = report.summary()
        assert summary["shed"] > 0
        assert summary["silent"] == 0
        assert system.network.metrics.queries_shed > 0
        shed = [o for o in report.outcomes if o.status == "shed"]
        assert all("retry after" in o.error for o in shed)

    def test_shed_queries_recover_via_resubmission(self):
        system = HybridSystem.from_scenario(
            hybrid_scenario(), config=PeerConfig(cache_enabled=False)
        )
        system.enable_admission(
            AdmissionControl(max_concurrent=1, max_queued=1, retry_after=7.0)
        )
        report = system.serve(_spec(8, burst_size=8, max_shed_retries=5))
        summary = report.summary()
        assert summary["completed"] == 8
        assert any(o.shed_retries > 0 for o in report.outcomes)

    def test_deadline_cancels_stragglers(self):
        system = HybridSystem.from_scenario(
            hybrid_scenario(), config=PeerConfig(cache_enabled=False)
        )
        system.enable_admission(
            AdmissionControl(max_concurrent=8, max_queued=8, deadline=2.0)
        )
        report = system.serve(_spec(4, burst_size=4, resubmit_sheds=False))
        errors = [o for o in report.outcomes if o.status == "error"]
        assert errors, "no query hit the deadline"
        assert all("deadline exceeded" in o.error for o in errors)
        assert system.network.metrics.deadline_expirations > 0
        assert report.summary()["silent"] == 0

    def test_fair_scheduling_preserves_answers(self, system):
        system.enable_fair_scheduling(quantum=0.25)
        report = system.serve(_spec(6, burst_size=6))
        assert report.summary()["completed"] == 6
        assert all(o.rows == 6 for o in report.outcomes)
        assert any(
            p.scheduler is not None and p.scheduler.executed > 0
            for p in system.peers.values()
        )


class TestClientKeywordSymmetry:
    """Regression: ``submit`` and ``query`` accept the same ``client``
    and result-shaping keywords on both systems (``submit`` used to
    reject ``client`` on HybridSystem, and AdhocSystem had no
    ``submit`` at all)."""

    def test_hybrid_submit_accepts_client(self, system):
        mine = system.add_client("C-mine")
        other = system.add_client("C-other")
        query_id = system.submit("P1", PAPER_QUERY, client=mine, limit=3)
        system.run()
        assert mine.result(query_id) is not None
        assert other.result(query_id) is None
        assert len(mine.result(query_id).table) == 3

    def test_hybrid_query_accepts_client(self, system):
        mine = system.add_client("C-mine")
        table = system.query("P1", PAPER_QUERY, client=mine)
        assert len(table) == 6
        assert len(mine.results) == 1

    def test_adhoc_submit_and_query_accept_client(self):
        system = AdhocSystem.from_scenario(adhoc_scenario())
        system.discover_all()
        mine = system.add_client("C-mine")
        query_id = system.submit("P1", PAPER_QUERY, client=mine)
        system.run()
        assert mine.result(query_id) is not None
        table = system.query("P1", PAPER_QUERY, client=mine)
        assert table == mine.result(query_id).table

    def test_submit_and_query_agree(self, system):
        by_query = system.query("P1", PAPER_QUERY, limit=2, order_by="X")
        query_id = system.submit("P1", PAPER_QUERY, limit=2, order_by="X")
        system.run()
        client = next(iter(system.clients.values()))
        assert client.result(query_id).table == by_query


class TestPerQueryIsolation:
    def test_concurrent_traces_do_not_cross_contaminate(self, system):
        """Every in-flight query stitches its own single-rooted,
        gap-free span tree; no span leaks into another query's trace."""
        from repro.obs import validate_trace

        report = system.serve(_spec(6, burst_size=6))
        assert report.summary()["completed"] == 6
        collector = system.network.trace_collector
        trace_ids = collector.trace_ids()
        assert len(trace_ids) >= 6
        for trace_id in trace_ids:
            spans = collector.spans(trace_id)
            assert validate_trace(spans) == [], f"trace {trace_id} invalid"
            assert {s.trace_id for s in spans} == {trace_id}

    def test_concurrent_outcomes_map_to_distinct_queries(self, system):
        report = system.serve(_spec(8, burst_size=8))
        query_ids = [o.query_id for o in report.outcomes]
        assert len(set(query_ids)) == len(query_ids)
        assert {o.index for o in report.outcomes} == set(range(8))


class TestRouteBusy:
    def test_route_saturation_backs_off_and_recovers(self):
        """When the super-peer's routing queue overflows, coordinators
        back off on RouteBusy and retry instead of failing."""
        system = HybridSystem.from_scenario(
            hybrid_scenario(), config=PeerConfig(cache_enabled=False)
        )
        system.enable_admission(
            AdmissionControl(
                max_concurrent=16, max_queued=1, retry_after=3.0,
                service_time=2.0,
            )
        )
        report = system.serve(_spec(6, burst_size=6))
        assert report.summary()["completed"] == 6
        assert system.network.metrics.messages_by_kind["RouteBusy"] > 0
