"""Tests for concurrent serving — open-loop arrivals played as a
:class:`~repro.scenario.Scenario`, admission control, deadlines and
fair scheduling — on both architectures."""

import pytest

from repro.config import AdmissionControl, PeerConfig
from repro.resilience.harness import PlayReport
from repro.scenario import Query, Scenario, play
from repro.systems import AdhocSystem, HybridSystem
from repro.workloads.paper import PAPER_QUERY, adhoc_scenario, hybrid_scenario


@pytest.fixture
def system():
    return HybridSystem.from_scenario(hybrid_scenario())


def _serve(system, count, rate=1.0, burst=1, shed_retries=3):
    """Offer ``count`` paper queries open-loop from now on."""
    load = Scenario.arrivals([Query("P1", PAPER_QUERY)], count, rate, seed=0,
                             burst=burst, start=system.network.now)
    return PlayReport.collect(play(load, system, shed_retries=shed_retries),
                              system.network)


class TestServe:
    def test_open_loop_answers_everything(self, system):
        report = _serve(system, 6)
        assert len(report.outcomes) == 6
        assert report.answered == 6
        assert report.count("no-reply") == 0
        assert all(o.rows == 6 for o in report.outcomes)

    def test_closed_loop_answers_everything(self, system):
        # the closed loop is the in-sequence play: each query waits for
        # the previous answer
        report = PlayReport.collect(
            play(Scenario([Query("P1", PAPER_QUERY)] * 6), system), system.network
        )
        assert report.answered == 6

    def test_adhoc_serves_too(self):
        system = AdhocSystem.from_scenario(adhoc_scenario())
        system.discover_all()
        assert _serve(system, 4).answered == 4

    def test_burst_interleaves_queries(self, system):
        report = _serve(system, 8, burst=8)
        assert report.max_inflight >= 8
        assert report.answered == 8

    def test_driver_injects_mid_run(self, system):
        """Open-loop arrivals land while earlier queries are still in
        flight: submissions are spread over virtual time, not batched
        up front."""
        report = _serve(system, 6, rate=0.5)
        submitted = {o.submitted_at for o in report.outcomes}
        assert len(submitted) > 1


class TestAdmissionControl:
    def test_overflow_is_parked_then_drained(self, system):
        system.enable_admission(
            AdmissionControl(max_concurrent=1, max_queued=32, retry_after=5.0)
        )
        report = _serve(system, 6, burst=6)
        assert report.answered == 6
        assert report.count("shed") == 0
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
        report = _serve(system, 8, burst=8, shed_retries=0)
        assert report.count("shed") > 0
        assert report.count("no-reply") == 0
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
        report = _serve(system, 8, burst=8, shed_retries=5)
        # queries were shed, and every one was answered after re-offers
        assert report.answered == 8
        assert system.network.metrics.queries_shed > 0

    def test_deadline_cancels_stragglers(self):
        system = HybridSystem.from_scenario(
            hybrid_scenario(), config=PeerConfig(cache_enabled=False)
        )
        system.enable_admission(
            AdmissionControl(max_concurrent=8, max_queued=8, deadline=2.0)
        )
        report = _serve(system, 4, burst=4, shed_retries=0)
        errors = [o for o in report.outcomes if o.status == "error"]
        assert errors, "no query hit the deadline"
        assert all("deadline exceeded" in o.error for o in errors)
        assert system.network.metrics.deadline_expirations > 0
        assert report.count("no-reply") == 0

    def test_fair_scheduling_preserves_answers(self, system):
        system.enable_fair_scheduling(quantum=0.25)
        report = _serve(system, 6, burst=6)
        assert report.answered == 6
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
    def test_concurrent_traces_do_not_cross_contaminate(self, system, monkeypatch):
        """Every in-flight query stitches its own single-rooted,
        gap-free span tree; no span leaks into another query's trace."""
        from repro.obs import validate_trace

        # trace every query, not one in SAMPLE_EVERY: each needs a tree
        monkeypatch.setattr("repro.obs.tracer.SAMPLE_EVERY", 1)
        report = _serve(system, 6, burst=6)
        assert report.answered == 6
        collector = system.network.trace_collector
        trace_ids = collector.trace_ids()
        assert len(trace_ids) >= 6
        for trace_id in trace_ids:
            spans = collector.spans(trace_id)
            assert validate_trace(spans) == [], f"trace {trace_id} invalid"
            assert {s.trace_id for s in spans} == {trace_id}

    def test_concurrent_outcomes_map_to_distinct_queries(self, system):
        report = _serve(system, 8, burst=8)
        query_ids = [o.query_id for o in report.outcomes]
        assert len(query_ids) == 8
        assert len(set(query_ids)) == len(query_ids)


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
        report = _serve(system, 6, burst=6)
        assert report.answered == 6
        assert system.network.metrics.messages_by_kind["RouteBusy"] > 0
