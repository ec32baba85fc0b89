"""Tests for the in-sim telemetry probe and the sampling pipeline."""

import json

from repro.obs.telemetry import (
    ClusterSeries,
    TelemetryProbe,
    parse_exposition,
    sample_from_exposition,
    sample_metricset,
)
from repro.obs.telemetry.probe import HEALTH_SCHEMA, TRACEZ_SCHEMA
from repro.obs.telemetry.sampler import EXPOSITION_FAMILIES, SAMPLED_COUNTERS
from repro.scenario import Query, Scenario, play
from repro.systems import HybridSystem
from repro.workloads.paper import PAPER_QUERY, paper_peer_bases, paper_schema


def paper_system(seed=0):
    system = HybridSystem(paper_schema(), seed=seed)
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    return system


def probed(system):
    peers = list(system.peers.values()) + list(system.super_peers.values())
    return TelemetryProbe(system.network, peers=peers)


class TestProbe:
    def test_healthz_schema_and_fields(self):
        system = paper_system()
        system.query("P1", PAPER_QUERY)
        health = probed(system).healthz()
        assert health["schema"] == HEALTH_SCHEMA
        assert health["status"] == "ok"
        assert health["role"] == "system"
        assert health["queries_finished"] >= 1
        assert health["inflight_queries"] == 0
        assert health["quarantined"] == []
        json.dumps(health)  # JSON-clean

    def test_tracez_summarises_the_query(self):
        system = paper_system()
        system.query("P1", PAPER_QUERY)
        tracez = probed(system).tracez()
        assert tracez["schema"] == TRACEZ_SCHEMA
        assert tracez["collected"] >= 1
        trace = tracez["traces"][-1]
        assert trace["spans"] > 1
        assert trace["problems"] == []
        assert trace["duration"] is not None

    def test_metrics_text_parses_with_the_scrape_parser(self):
        system = paper_system()
        system.query("P1", PAPER_QUERY)
        samples = parse_exposition(probed(system).metrics_text())
        families = {name for name, _, _ in samples}
        assert "repro_messages_total" in families
        assert "repro_query_latency_bucket" in families

    def test_probing_perturbs_nothing(self):
        # the probe is pull-based: two same-seed runs, one probed after
        # every query, end with identical metric snapshots
        bare, watched = paper_system(seed=3), paper_system(seed=3)
        probe = probed(watched)
        series = ClusterSeries()
        for _ in range(3):
            bare.query("P1", PAPER_QUERY)
            watched.query("P1", PAPER_QUERY)
            probe.healthz()
            probe.tracez()
            series.append(probe.node_id, probe.sample())
        assert bare.network.metrics.snapshot() == watched.network.metrics.snapshot()


class TestSamplingPipeline:
    def test_sim_and_exposition_paths_agree(self):
        # one MetricSet, read both ways: directly and through the
        # rendered exposition — the difftest invariant of the pipeline
        system = paper_system()
        system.query("P1", PAPER_QUERY)
        # every sampled table counter at its own non-zero value, so
        # agreement is not 0 == 0 and a crossed family would show
        for n, name in enumerate(SAMPLED_COUNTERS, start=1):
            system.network.metrics.count(name, n)
        probe = probed(system)
        direct = sample_metricset(system.network.metrics, t=1.0)
        scraped = sample_from_exposition(
            parse_exposition(probe.metrics_text()), t=1.0
        )
        assert tuple(direct.counters) == tuple(EXPOSITION_FAMILIES)
        assert len(EXPOSITION_FAMILIES) == 13  # a sample stays a selection
        assert all(direct.counters.values())
        assert scraped.counters == direct.counters
        assert scraped.latency_buckets == direct.latency_buckets

    def test_rollup_rates_and_percentiles(self):
        system = paper_system()
        probe = probed(system)
        series = ClusterSeries()
        for round_index in range(3):
            system.query("P1", PAPER_QUERY)
            series.append(probe.node_id, probe.sample())
        rollup = series.rollup(window=10_000.0)
        assert rollup["queries_finished"] == 2.0  # deltas span 3 samples
        assert rollup["query_rate"] > 0
        assert rollup["shed_rate"] == 0.0
        assert rollup["p99_latency"] is not None
        assert rollup["p50_latency"] <= rollup["p99_latency"]

    def test_cluster_rollup_availability(self):
        from repro.obs.telemetry import TelemetrySample

        cluster = ClusterSeries()
        up = TelemetrySample(t=1.0, counters={"queries_finished": 4.0},
                             latency_buckets=((1.0, 4),), gauges={})
        down = TelemetrySample(t=1.0, counters={}, latency_buckets=(),
                               gauges={}, up=False)
        cluster.append("P1", up)
        cluster.append("P2", down)
        rollup = cluster.rollup(window=60.0)
        assert rollup["peers"] == 2
        assert rollup["peers_up"] == 1
        assert rollup["availability"] == 0.5

    def test_sim_watchdog_rolls_up_like_a_one_peer_cluster(self):
        # an in-sim watchdog (the one an in-sim `repro run` runs: the
        # probe sampled on every answer) and a scraper's series, fed the
        # same samples, agree on every window — a quiet one included
        system = paper_system()
        seen = []

        class Recording(TelemetryProbe):
            def sample(self, gauges=None):
                seen.append(super().sample(gauges))
                return seen[-1]

        probe = Recording(system.network, peers=list(system.peers.values()))
        watchdog = ClusterSeries()
        client = system.add_client()
        client.result_listeners.append(
            lambda client, result: watchdog.append(probe.node_id, probe.sample())
        )
        list(play(Scenario([Query("P1", PAPER_QUERY)] * 4), system, client=client))
        assert len(seen) == 4
        # two later samples with nothing finished in between
        quiet = [seen[-1]._replace(t=seen[-1].t + dt) for dt in (1_000.0, 1_001.0)]
        for sample in quiet:
            watchdog.append(probe.node_id, sample)
        cluster = ClusterSeries()
        for sample in [*seen, *quiet]:
            cluster.append("P1", sample)
        for window in (5.0, 60.0, 10_000.0):
            assert watchdog.rollup(window) == cluster.rollup(window)
        assert cluster.rollup(60.0)["p99_latency"] is None
        assert cluster.rollup(10_000.0)["p99_latency"] is not None
