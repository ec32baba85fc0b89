"""Tests for the launcher-side ClusterScraper: endpoint discovery, the
durable timeline, down-peer alerts, and crash diagnostic bundles."""

import asyncio
import json
import threading

import pytest

from repro.metrics import MetricSet
from repro.obs import render_prometheus
from repro.obs.telemetry import (
    ClusterScraper,
    SLORule,
    TelemetryProbe,
    TelemetryServer,
    discover_endpoints,
    read_timeline,
    write_diagnostic_bundle,
    write_endpoint_file,
)


class TestEndpointFiles:
    def test_round_trip(self, tmp_path):
        write_endpoint_file(tmp_path, "P1", "127.0.0.1", 4100, role="peer")
        write_endpoint_file(tmp_path, "SP1", "127.0.0.1", 4101)
        assert discover_endpoints(tmp_path) == {
            "P1": ("127.0.0.1", 4100),
            "SP1": ("127.0.0.1", 4101),
        }

    def test_half_written_file_skipped(self, tmp_path):
        write_endpoint_file(tmp_path, "P1", "127.0.0.1", 4100)
        (tmp_path / "P2.endpoint.json").write_text('{"node_id": "P2", "ho')
        assert list(discover_endpoints(tmp_path)) == ["P1"]

    def test_empty_dir(self, tmp_path):
        assert discover_endpoints(tmp_path) == {}


@pytest.fixture()
def live_peer(tmp_path):
    """One real telemetry endpoint (threaded loop) plus one dead one,
    both advertised via endpoint files in ``tmp_path``."""
    metrics = MetricSet()
    for i in range(4):
        metrics.query_started(f"q{i}", time=float(i))
        metrics.query_finished(f"q{i}", time=float(i) + 10.0)

    def metrics_handler():
        return "text/plain", render_prometheus(metrics, const_labels={"peer_id": "P1"})

    def healthz_handler():
        return "application/json", json.dumps(
            {"status": "ok", "node_id": "P1", "role": "peer", "inflight_queries": 2}
        )

    loop = asyncio.new_event_loop()
    server = TelemetryServer({"/metrics": metrics_handler, "/healthz": healthz_handler})
    host, port = server.start(loop)
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    write_endpoint_file(tmp_path, "P1", host, port)
    # P2's endpoint file points at a port nobody listens on
    import socket

    dead = socket.socket()
    dead.bind(("127.0.0.1", 0))
    dead_port = dead.getsockname()[1]
    dead.close()
    write_endpoint_file(tmp_path, "P2", "127.0.0.1", dead_port)
    try:
        yield tmp_path, metrics
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5.0)
        server.close(loop)
        loop.close()


class TestScrapeLoop:
    def availability_rule(self):
        return (
            SLORule("availability", "availability", "<", 0.75, for_samples=1),
        )

    def test_scrape_once_writes_samples_rollup_and_alert(self, live_peer):
        outdir, _ = live_peer
        clock = iter([10.0, 20.0, 30.0])
        scraper = ClusterScraper(
            outdir, clock=lambda: next(clock), rules=self.availability_rule()
        )
        rollup = scraper.scrape_once()
        scraper.close()
        assert rollup["peers_up"] == 1
        assert rollup["peers"] == 2
        assert rollup["availability"] == 0.5
        # P2 being down trips the availability SLO on the first round
        assert [a["rule"] for a in rollup["alerts"]] == ["availability"]
        assert rollup["alerts"][0]["state"] == "firing"

        records = read_timeline(outdir / "timeline.jsonl")
        kinds = [r["kind"] for r in records]
        assert kinds == ["sample", "sample", "rollup", "alert"]
        by_peer = {r["peer"]: r for r in records if r["kind"] == "sample"}
        assert by_peer["P1"]["up"] is True
        assert by_peer["P1"]["counters"]["queries_finished"] == 4.0
        assert by_peer["P1"]["inflight"] == 2
        assert by_peer["P2"]["up"] is False

    def test_health_tracks_both_peers(self, live_peer):
        outdir, _ = live_peer
        scraper = ClusterScraper(
            outdir, clock=lambda: 5.0, rules=self.availability_rule(),
            timeline=None,
        )
        scraper.scrape_once()
        scraper.close()
        assert scraper.health["P1"]["status"] == "ok"
        assert scraper.health["P2"]["status"] == "down"
        assert scraper.scrape_failures == 1

    def test_summary_digest(self, live_peer):
        outdir, _ = live_peer
        clock = iter([10.0, 20.0])
        scraper = ClusterScraper(
            outdir, clock=lambda: next(clock), rules=self.availability_rule(),
            timeline=None,
        )
        scraper.scrape_once()
        scraper.scrape_once()
        scraper.close()
        summary = scraper.summary()
        assert summary["rounds"] == 2
        assert summary["scrape_failures"] == 2
        assert summary["rollup"]["availability"] == 0.5
        assert summary["active_alerts"][0]["rule"] == "availability"
        # firing fired once; the second round is not a transition
        assert len(summary["alerts"]) == 1


class TestTimelineDurability:
    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "timeline.jsonl"
        path.write_text(
            json.dumps({"kind": "rollup", "t": 1.0}) + "\n"
            + json.dumps({"kind": "sample", "peer": "P1", "t": 1.0}) + "\n"
            + '{"kind": "rollup", "t": 2.0, "avail'  # SIGKILL mid-write
        )
        records = read_timeline(path)
        assert [r["kind"] for r in records] == ["rollup", "sample"]

    def test_missing_file_is_empty(self, tmp_path):
        assert read_timeline(tmp_path / "nope.jsonl") == []

    def test_a_new_scraper_starts_a_fresh_timeline(self, tmp_path):
        """A run's timeline is its own: a scraper opening a reused run
        directory does not append to the previous run's rounds."""
        for round_no in range(2):
            scraper = ClusterScraper(tmp_path, clock=lambda: float(round_no))
            scraper.timeline({"kind": "rollup", "t": float(round_no)})
            scraper.close()
        assert read_timeline(tmp_path / "timeline.jsonl") == [
            {"kind": "rollup", "t": 1.0}
        ]


class TestProbeSource:
    def test_a_sim_round_samples_the_probe_in_process(self, tmp_path):
        """In-sim the one source is a probe of the whole system: one
        sample per round at the network's clock, alerts scoped ``sim``,
        and no endpoint is looked for."""
        from repro.net.simulator import Network

        network = Network(seed=0)
        network.metrics.query_started("q0", time=0.0)
        network.metrics.query_finished("q0", time=2.0)
        write_endpoint_file(tmp_path, "P1", "127.0.0.1", 1)  # never dialled
        scraper = ClusterScraper(
            tmp_path, probe=TelemetryProbe(network),
            rules=(SLORule("latency", "p99_latency", ">", 1.0, for_samples=1),),
        )
        rollup = scraper.scrape_once()
        scraper.close()
        assert scraper.scrape_failures == 0 and list(scraper.series.peers) == ["_system"]
        assert [(a["rule"], a["scope"]) for a in rollup["alerts"]] == [("latency", "sim")]
        records = read_timeline(tmp_path / "timeline.jsonl")
        assert [r["kind"] for r in records] == ["sample", "rollup", "alert"]
        assert records[0]["t"] == network.now
        assert records[0]["counters"]["queries_finished"] == 1.0


class TestDiagnosticBundle:
    def test_bundle_collects_node_artifacts(self, tmp_path, live_peer):
        outdir, _ = live_peer
        (outdir / "P2.events.jsonl").write_text('{"kind": "crash"}\n')
        (outdir / "P2.slow.q7.json").write_text('{"query": "q7"}')
        scraper = ClusterScraper(
            outdir, clock=lambda: 1.0, timeline=None,
            rules=(SLORule("availability", "availability", "<", 0.75,
                           for_samples=1),),
        )
        scraper.scrape_once()
        bundle = write_diagnostic_bundle(
            outdir, "crash-P2", reason="peer P2 exited 137",
            node_ids=("P2",), scraper=scraper,
        )
        scraper.close()
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["schema"] == "repro.obs/bundle-v1"
        assert manifest["reason"] == "peer P2 exited 137"
        assert manifest["health"]["P2"]["status"] == "down"
        assert manifest["active_alerts"][0]["rule"] == "availability"
        assert sorted(manifest["files"]) == [
            "P2.endpoint.json", "P2.events.jsonl", "P2.slow.q7.json",
        ]
        for name in manifest["files"]:
            assert (bundle / name).exists()

    def test_bundle_without_scraper(self, tmp_path):
        bundle = write_diagnostic_bundle(tmp_path, "trip", reason="breaker")
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["files"] == []
        assert "health" not in manifest
