"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.rdf import save_graph, save_schema
from repro.workloads.paper import N1, paper_peer_bases, paper_schema


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "⋈(∪(Q1@P1, Q1@P2, Q1@P4), ∪(Q2@P1, Q2@P3, Q2@P4))" in out
        assert "answer (9 rows):" in out


class TestFigures:
    def test_figures_match_paper(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Q1<-[P1, P2, P4] Q2<-[P1, P3, P4]" in out
        assert "∪(⋈(Q1@P2, Q2@?), ⋈(Q1@P3, Q2@?))" in out


class TestQuery:
    @pytest.fixture
    def files(self, tmp_path):
        schema = paper_schema()
        schema_path = tmp_path / "schema.nt"
        save_schema(schema, str(schema_path))
        peer_paths = {}
        for peer_id, graph in paper_peer_bases().items():
            path = tmp_path / f"{peer_id}.nt"
            save_graph(graph, str(path))
            peer_paths[peer_id] = str(path)
        return str(schema_path), peer_paths

    def _args(self, files, extra=()):
        schema_path, peer_paths = files
        args = ["query", "--schema", schema_path, "--namespace", N1.uri]
        for peer_id, path in peer_paths.items():
            args += ["--peer", f"{peer_id}={path}"]
        args += ["--via", "P1", *extra]
        args.append(
            "SELECT X, Y FROM {X} n1:prop1 {Y}, {Y} n1:prop2 {Z} "
            f"USING NAMESPACE n1 = &{N1.uri}&"
        )
        return args

    def test_query_from_files(self, files, capsys):
        assert main(self._args(files)) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "X\tY"
        assert "# 9 rows" in captured.err

    def test_limit_flag(self, files, capsys):
        assert main(self._args(files, extra=["--limit", "3"])) == 0
        assert "# 3 rows" in capsys.readouterr().err

    def test_bad_peer_spec(self, files, capsys):
        schema_path, peer_paths = files
        args = [
            "query", "--schema", schema_path, "--namespace", N1.uri,
            "--peer", "broken-spec", "--via", "P1", "SELECT X FROM {X} n1:prop1 {Y}",
        ]
        assert main(args) == 2

    def test_unknown_via(self, files):
        schema_path, peer_paths = files
        path = next(iter(peer_paths.values()))
        args = [
            "query", "--schema", schema_path, "--namespace", N1.uri,
            "--peer", f"P1={path}", "--via", "ZZZ",
            "SELECT X FROM {X} n1:prop1 {Y}",
        ]
        assert main(args) == 2

    def test_failing_query_exit_code(self, files, capsys):
        schema_path, peer_paths = files
        path = next(iter(peer_paths.values()))
        args = [
            "query", "--schema", schema_path, "--namespace", N1.uri,
            "--peer", f"P1={path}", "--via", "P1",
            "THIS IS NOT RQL",
        ]
        assert main(args) == 1
        assert "query failed" in capsys.readouterr().err


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The run directory an in-sim ``run --count 4 --outdir`` leaves, per
    architecture: super-peers (``--super-peers 1``) and ad-hoc (``0``)."""
    dirs = {}
    for arch, super_peers in (("hybrid", "1"), ("adhoc", "0")):
        dirs[arch] = tmp_path_factory.mktemp(arch)
        assert main(["run", "--count", "4", "--super-peers", super_peers,
                     "--outdir", str(dirs[arch])]) == 0
    return dirs


def _first_trace_id(run):
    import json

    export = json.loads((run / "sim.trace.json").read_text())
    return export["traces"][0]["trace_id"]


class TestRunDirectory:
    """A sim run leaves what a live run leaves, and every reader reads it."""

    @pytest.mark.parametrize("arch", ["hybrid", "adhoc"])
    def test_the_readers_read_a_sim_run(self, runs, arch, capsys):
        names = {path.name for path in runs[arch].iterdir()}
        assert names == {"sim.metrics.prom", "sim.trace.json", "timeline.jsonl",
                         "merged.metrics.prom", "merged.traces.json"}
        assert main(["trace", str(runs[arch] / "merged.traces.json"), "--check"]) == 0
        assert main(["metrics", str(runs[arch])]) == 0
        assert main(["alerts", str(runs[arch])]) == 0
        err = capsys.readouterr().err
        assert "trace OK" in err and "# merged 1 process dumps" in err
        assert "# 4 scrape rounds" in err

    def test_timeline_records_match_the_scraper(self, runs):
        from repro.obs.telemetry import read_timeline

        records = read_timeline(runs["hybrid"] / "timeline.jsonl")
        kinds = [r["kind"] for r in records if r["kind"] != "alert"]
        assert kinds == ["sample", "rollup"] * 4
        sample = records[0]
        assert set(sample) == {"kind", "t", "peer", "up", "counters", "inflight"}
        assert sample["up"] and sample["counters"]["queries_finished"] == 1

    def test_a_reused_outdir_starts_a_fresh_timeline(self, tmp_path, capsys):
        for _ in range(2):
            assert main(["run", "--count", "4", "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["alerts", str(tmp_path)]) == 0
        assert "# 4 scrape rounds" in capsys.readouterr().err

    def test_a_sim_run_without_outdir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--count", "2"]) == 0
        assert not any(tmp_path.iterdir())


class TestTrace:
    def test_trace_check_hybrid(self, runs, capsys):
        assert main(["trace", str(runs["hybrid"] / "merged.traces.json"),
                     "--check"]) == 0
        captured = capsys.readouterr()
        assert "query @client1" in captured.out
        assert "route @SP1" in captured.out
        assert "trace OK" in captured.err
        assert "no gaps" in captured.err

    def test_trace_check_adhoc(self, runs, capsys):
        assert main(["trace", str(runs["adhoc"] / "merged.traces.json"),
                     "--check"]) == 0
        captured = capsys.readouterr()
        assert "coordinate @P" in captured.out and "@SP" not in captured.out
        assert "trace OK" in captured.err

    def test_trace_json_export(self, runs):
        import json

        export = json.loads((runs["hybrid"] / "sim.trace.json").read_text())
        assert export["schema"] == "repro.obs/trace-v1"
        assert export["traces"][0]["spans"]
        merged = json.loads((runs["hybrid"] / "merged.traces.json").read_text())
        assert merged["schema"] == "repro.obs/trace-merge-v1"
        assert list(merged["nodes"]) == ["sim"]
        assert merged["stitched_traces"] == 4 and merged["validation"] == {}

    def test_trace_no_events_hides_annotations(self, runs, capsys):
        path = str(runs["adhoc"] / "merged.traces.json")
        assert main(["trace", path, "--no-events"]) == 0
        with_flag = capsys.readouterr().out
        assert main(["trace", path]) == 0
        without_flag = capsys.readouterr().out
        # each channel's data packets annotate events; --no-events drops them
        assert "· " not in with_flag
        assert "· " in without_flag

    @pytest.mark.parametrize("nodes, cross_clock", [(1, False), (2, True)])
    def test_check_crosses_clocks_only_across_processes(
        self, runs, tmp_path, monkeypatch, nodes, cross_clock
    ):
        """One process's spans share one clock, however many peers they
        name; a merge of several processes' exports is checked across
        clock epochs."""
        import json

        from repro.cli import observe

        export = json.loads((runs["hybrid"] / "sim.trace.json").read_text())
        path = tmp_path / "merged.traces.json"
        empty = {"schema": "repro.obs/trace-v1", "traces": []}
        path.write_text(json.dumps({
            "schema": "repro.obs/trace-merge-v1",
            "nodes": {"sim": export, **{f"n{i}": empty for i in range(1, nodes)}},
        }))
        seen = []
        monkeypatch.setattr(observe, "validate_trace", lambda spans, cross_clock: (
            seen.append(cross_clock) or []))
        assert main(["trace", str(path), "--check"]) == 0
        assert seen == [cross_clock]


class TestTraceFollow:
    def test_query_filter_hits(self, runs, capsys):
        trace_id = _first_trace_id(runs["hybrid"])
        assert main(["trace", str(runs["hybrid"] / "merged.traces.json"),
                     "--query", trace_id, "--check"]) == 0
        captured = capsys.readouterr()
        assert f"trace {trace_id} " in captured.out
        assert "trace OK" in captured.err

    def test_query_filter_miss_lists_available(self, runs, capsys):
        assert main(["trace", str(runs["hybrid"] / "merged.traces.json"),
                     "--query", "nope-q9"]) == 1
        err = capsys.readouterr().err
        assert "no trace for query 'nope-q9'" in err
        assert "export holds: client1-q1" in err

    def test_from_export_file(self, runs, capsys):
        trace_id = _first_trace_id(runs["hybrid"])
        assert main(["trace", str(runs["hybrid"] / "sim.trace.json"),
                     "--query", trace_id, "--check"]) == 0
        captured = capsys.readouterr()
        assert "query @client1" in captured.out
        assert "trace OK" in captured.err

    def test_from_export_miss(self, runs, capsys):
        assert main(["trace", str(runs["hybrid"] / "sim.trace.json"),
                     "--query", "absent"]) == 1
        assert "export holds:" in capsys.readouterr().err

    def test_from_unreadable_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestMetrics:
    def test_metrics_exposition(self, runs, capsys):
        assert main(["metrics", str(runs["hybrid"])]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_messages_total counter" in out
        assert 'repro_query_latency_quantile{quantile="p50",peer_id="sim"' in out
        assert 'repro_stage_duration_bucket{stage="execute"' in out
        assert "# TYPE repro_peer_gauge gauge" in out

    def test_metrics_adhoc(self, runs, capsys):
        assert main(["metrics", str(runs["adhoc"])]) == 0
        assert "repro_messages_total" in capsys.readouterr().out

    def test_a_merged_dump_is_never_merged_again(self, tmp_path, capsys):
        """Reading a finished run, or merging into a reused directory,
        counts every process once."""
        from repro.deploy.node import merge_artifacts

        dump = '# TYPE repro_x counter\nrepro_x{peer_id="P1"} 3\n'
        (tmp_path / "P1.metrics.prom").write_text(dump)
        for _ in range(2):  # the second merge finds the first one's output
            merge_artifacts(tmp_path)
        assert (tmp_path / "merged.metrics.prom").read_text().count("repro_x{") == 1
        assert main(["metrics", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.count('repro_x{peer_id="P1"} 3') == 1
        assert "# merged 1 process dumps" in captured.err


class TestMetricsWatch:
    def test_watch_without_a_source_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exit:
            main(["metrics", "--watch", "1"])
        assert exit.value.code == 2
        assert "outdir" in capsys.readouterr().err

    def test_scrape_empty_dir(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path), "--scrape"]) == 1
        assert "*.endpoint.json" in capsys.readouterr().err


class TestTop:
    def test_empty_dir_is_an_error(self, tmp_path, capsys):
        assert main(["top", str(tmp_path)]) == 1
        assert "no *.endpoint.json" in capsys.readouterr().err

    def test_dead_endpoints_render_as_down(self, tmp_path, capsys):
        import socket

        from repro.obs.telemetry import write_endpoint_file

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        write_endpoint_file(tmp_path, "P1", "127.0.0.1", port)
        assert main(["top", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "peers 0/1 up" in out
        assert "availability 0%" in out
        assert "down" in out


class TestAlerts:
    def test_demo_fires_the_shed_rate_alert(self, capsys):
        """The overload demo is an ordinary in-sim run: admission starved
        to 1 running + 1 queued, the watchdog on every answer."""
        assert main(["run", "--count", "32", "--arrival-rate", "4",
                     "--max-concurrent", "1", "--max-queued", "1"]) == 0
        out = capsys.readouterr().out
        assert "FIRING" in out and "shed-rate" in out
        assert "0 no-reply" in out

    def test_no_directory_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit:
            main(["alerts"])
        assert exit.value.code == 2
        assert "outdir" in capsys.readouterr().err

    def test_replay_reports_transitions_and_active(self, tmp_path, capsys):
        import json

        records = [
            {"kind": "rollup", "t": 1.0},
            {"kind": "alert", "schema": "repro.obs/alert-v1", "state": "firing",
             "rule": "shed-rate", "scope": "cluster", "t": 1.0,
             "metric": "shed_rate", "value": 0.4, "threshold": 0.25,
             "op": ">", "window": 60.0},
            {"kind": "rollup", "t": 2.0},
        ]
        (tmp_path / "timeline.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        assert main(["alerts", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "FIRING" in captured.out and "shed-rate" in captured.out
        assert "2 scrape rounds, 1 transitions, 1 still firing" in captured.err
        assert main(["alerts", str(tmp_path), "--fail-on-active"]) == 1

    def test_replay_without_timeline(self, tmp_path, capsys):
        assert main(["alerts", str(tmp_path)]) == 1
        assert "no timeline.jsonl" in capsys.readouterr().err


class TestServe:
    """``run`` in the sim: open-loop load on the spec's in-sim twin.  At
    seed 0 one of the four generated texts finds no relevant peer and is
    answered with an error, so these assert that every query got a
    reply."""

    def test_serve_answers_everything(self, capsys):
        assert main(["run", "--count", "8", "--arrival-rate", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "deployment : hybrid" in out
        assert "8 queries (" in out and "0 no-reply" in out
        assert "throughput" in out

    def test_serve_adhoc(self, capsys):
        assert main(["run", "--super-peers", "0", "--count", "6",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "deployment : adhoc" in out
        assert "0 no-reply" in out

    def test_serve_with_admission_and_fairness(self, capsys):
        assert main(["run", "--count", "10", "--max-concurrent", "2",
                     "--max-queued", "8", "--fair-quantum", "0.5",
                     "--arrival-rate", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "10 queries (" in out and "0 no-reply" in out

    def test_serve_updates_land_while_queries_are_in_flight(self):
        from repro.cli import _build_parser
        from repro.cli.run import SHED_RETRIES, _update_stream, build_scenario
        from repro.deploy import ClusterSpec, build_sim_system, build_workload
        from repro.livedata import LiveDataDriver
        from repro.resilience.harness import PlayReport
        from repro.scenario import play

        args = _build_parser().parse_args(["run", "--count", "12", "--updates", "3"])
        spec = ClusterSpec(seed=args.seed)
        workload = build_workload(spec)
        system = build_sim_system(spec, workload)
        driver = LiveDataDriver(system, _update_stream(spec, workload, 3))
        scenario = build_scenario(args, spec, workload.queries,
                                  start=system.network.now)
        acked = []
        handle = driver.injector.handle_UpdateAck

        def record(message):
            acked.append(system.network.now)
            handle(message)

        driver.injector.handle_UpdateAck = record
        report = PlayReport.collect(
            play(scenario, system, updates=driver, shed_retries=SHED_RETRIES),
            system.network,
        )
        first = min(o.submitted_at for o in report.outcomes)
        last = max(o.finished_at for o in report.outcomes)
        assert report.count("no-reply") == 0
        assert acked and all(driver.acked(r) for r in (1, 2, 3))
        assert any(first < t < last for t in acked), (first, last, acked)

    def test_serve_exhausted_budget_fails_with_diagnostics(self, capsys, monkeypatch):
        from repro.cli import run

        monkeypatch.setattr(run, "MAX_EVENTS", 30)
        assert main(["run", "--count", "8", "--arrival-rate", "5.0"]) == 1
        err = capsys.readouterr().err
        assert "event budget exhausted" in err
        assert "queries in flight" in err


def kinds_of(scenario):
    return [type(e) for e in scenario]


class TestRun:
    """One scenario builder, two targets."""

    FLAGS = ["--joiners", "1", "--kill", "P2", "--kill-signal", "kill",
             "--resilient", "--topk", "3", "--updates", "2"]

    def test_sim_and_live_scenarios_carry_the_same_events(self):
        from repro.cli import _build_parser
        from repro.cli.run import build_scenario
        from repro.deploy import ClusterSpec, build_workload
        from repro.scenario import Crash, Heartbeat, Join, Query, Update

        args = _build_parser().parse_args(["run", *self.FLAGS])
        spec = ClusterSpec(seed=0, joiners=1, resilient=True, livedata=True)
        texts = build_workload(spec).queries

        def shape(scenario):
            return [
                (type(e).__name__, getattr(e, "via", getattr(e, "peer", None)),
                 getattr(e, "text", None), getattr(e, "limit", None))
                for e in scenario
            ]

        live = build_scenario(args, spec, texts)
        sim = build_scenario(args, spec, texts, start=5.0)
        # a resilient sim run also carries two liveness rounds per query
        assert shape(e for e in sim if not isinstance(e, Heartbeat)) == shape(live)
        assert shape(sim)[:3] == [("Heartbeat", None, None, None)] * 2 + shape(live)[:1]
        assert kinds_of(sim).count(Heartbeat) == 2 * args.count
        kinds = kinds_of(live)
        assert kinds.count(Query) == args.count
        assert (kinds.count(Update), kinds.count(Crash), kinds.count(Join)) == (2, 1, 1)
        assert all(e.at is None for e in live)
        assert all(e.limit == 3 for e in live if isinstance(e, Query))
        # the sim arms every event at its query's open-loop arrival
        instants = [e.at for e in sim]
        assert instants == sorted(instants) and instants[0] > 5.0
        assert not any(e.mid_query for e in sim if not isinstance(e, Query))

    def test_a_supervised_victim_restarts_at_the_next_arrival_in_sim(self):
        from repro.cli import _build_parser
        from repro.cli.run import build_scenario
        from repro.deploy import ClusterSpec, build_workload
        from repro.scenario import Crash, Query, Restart

        args = _build_parser().parse_args(["run", "--kill", "P2", "--supervise"])
        spec = ClusterSpec(seed=0)
        texts = build_workload(spec).queries
        sim = build_scenario(args, spec, texts, start=5.0).events
        crash = kinds_of(sim).index(Crash)
        restart = kinds_of(sim).index(Restart)
        # armed at the arrival of the query after the one the crash precedes
        assert kinds_of(sim[crash:restart + 2]) == [Crash, Query, Restart, Query]
        assert sim[restart].peer == "P2"
        assert sim[restart].at == sim[restart + 1].at > sim[crash].at
        # live, the supervisor restarts the process: no Restart event
        assert not any(isinstance(e, Restart) for e in build_scenario(args, spec, texts))

    def test_loss_kill_supervise_replays_identically(self, capsys):
        """Loss, a crash and its recovery on a resilient run: same
        seed, same report."""
        flags = ["run", "--resilient", "--loss", "0.1", "--kill", "P2",
                 "--supervise", "--count", "8"]
        assert main(flags) == 0
        first = capsys.readouterr().out
        assert main(flags) == 0
        assert capsys.readouterr().out == first
        assert "killed P2" in first and "restarted P2" in first
        assert "resilience : loss=10%" in first
        partial = int(first.split(" partial,")[0].rsplit(", ", 1)[1])
        assert partial >= 1

    def test_a_crashed_sim_peer_sends_nothing(self, capsys, monkeypatch):
        """At seed 0 the kill lands while P2 coordinates a query.  Its
        timers keep firing after the crash, but nothing it would send is
        metered: only the network's bounces of messages to it carry its
        id as their source."""
        from repro.metrics import MetricSet
        from repro.net.simulator import Network

        log = []
        record, fail = MetricSet.record_message, Network.fail_peer

        def metered(self, kind, src, *args, **kwargs):
            log.append((kind, src))
            return record(self, kind, src, *args, **kwargs)

        def crashed(self, peer_id):
            log.append(("crash", peer_id))
            return fail(self, peer_id)

        monkeypatch.setattr(MetricSet, "record_message", metered)
        monkeypatch.setattr(Network, "fail_peer", crashed)
        assert main(["run", "--kill", "P2", "--resilient", "--count", "6"]) == 0
        after = log[log.index(("crash", "P2")) + 1:]
        assert {kind for kind, src in after if src == "P2"} == {"DeliveryFailure"}
        assert "1 errors" in capsys.readouterr().out

    def test_sim_plays_churn_to_a_reply_for_every_query(self, capsys):
        assert main(["run", *self.FLAGS]) == 0
        out = capsys.readouterr().out
        assert "killed P2" in out and "joined P4" in out
        assert "partial" in out and "0 no-reply" in out


class TestQueryValidation:
    def test_batch_size_is_checked_before_any_file_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.nt")
        assert main(["query", "--schema", missing, "--namespace", N1.uri,
                     "--via", "P1", "--batch-size", "0", "SELECT X"]) == 2
        assert "--batch-size must be >= 1" in capsys.readouterr().err


class TestPeerValidation:
    """A node's command line is checked before a socket is bound or a
    workload generated: one line on stderr, exit 2."""

    def _run(self, capsys, **overrides):
        flags = {"--node-id": "P1", "--seed": "127.0.0.1:1",
                 "--spec": '{"seed": 0, "peers": 2, "joiners": 1}',
                 "--outdir": "unused", **overrides}
        code = main(["peer", *(token for flag in flags.items() for token in flag)])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return code, err

    def test_node_outside_the_spec(self, capsys):
        code, err = self._run(capsys, **{"--node-id": "P4"})
        assert code == 2 and "'P4'" in err and "SP1, P1, P2, P3" in err

    def test_seed_is_not_an_address(self, capsys):
        code, err = self._run(capsys, **{"--seed": "nonsense"})
        assert code == 2 and "HOST:PORT" in err

    @pytest.mark.parametrize("spec, complaint", [
        ('{"seed": 0', "not JSON"),
        ("[0, 3]", "JSON object"),
        ('{"seed": 0, "peerz": 3}', "no field 'peerz'"),
        ('{"seed": 0, "peers": "3"}', "'peers' cannot be '3'"),
        ('{"seed": 0, "resilient": 1}', "'resilient' cannot be 1"),
        ('{"peers": 3}', "needs a 'seed'"),
        ('{"seed": 0, "super_peers": 0}', "super-peers >= 1"),
    ], ids=["invalid-json", "not-an-object", "unknown-key", "wrong-type",
            "int-for-bool", "no-seed", "out-of-range"])
    def test_malformed_spec(self, capsys, spec, complaint):
        code, err = self._run(capsys, **{"--spec": spec})
        assert code == 2 and complaint in err


class TestChaosValidation:
    """A crash or fault plan ``run`` cannot play is refused before
    anything runs: one error line, nothing on stdout."""

    @pytest.mark.parametrize("flags, complaint", [
        (["--kill", "P9"], "--kill 'P9' is not a peer of this cluster"),
        (["--loss", "0.1"], "--loss needs --resilient"),
        (["--resilient", "--loss", "1.5"], "--loss must be a probability in [0, 1]"),
        (["--live", "--resilient", "--loss", "0.1"], "--loss: sim-only, drop --live"),
    ], ids=["unknown-peer", "loss-without-resilience", "loss-not-a-probability",
            "loss-live"])
    def test_impossible_crash(self, capsys, flags, complaint):
        assert main(["run", *flags]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and complaint in err
        assert err.count("\n") == 1 and out == ""


class TestLaunchValidation:
    """``run`` checks its flags before anything is built or spawned: one
    error line, exit 2, no outdir."""

    @pytest.mark.parametrize("flags, complaint", [
        (["--live", "--kill", "P9"],
         "--kill 'P9' is not a peer of this cluster (P1, P2, P3)"),
        (["--live", "--peers", "0"], "peers >= 1"),
        (["--live", "--peers", "1", "--resilient", "--kill", "P1"],
         "--kill P1 leaves no peer to pose queries through"),
        (["--live", "--super-peers", "0"], "super-peers >= 1"),
        (["--super-peers", "0", "--joiners", "1"], "no super-peer for joiners"),
        (["--count", "0"], "--count must be >= 1"),
        (["--arrival-rate", "0"], "--arrival-rate must be positive"),
        (["--topk", "0"], "--topk must be >= 1"),
        (["--max-concurrent", "0"], "--max-concurrent must be >= 1"),
        (["--live", "--max-queued", "4"], "--max-queued: sim-only, drop --live"),
        (["--host", "0.0.0.0", "--scrape-every", "1"],
         "--host, --scrape-every: live-only, add --live"),
    ], ids=["kill-unknown", "no-peers", "kill-no-survivor", "adhoc-live",
            "adhoc-joiners", "no-queries", "no-arrivals", "no-topk",
            "no-admission", "sim-flag-live", "live-flag-sim"])
    def test_bad_node_name(self, tmp_path, capsys, monkeypatch, flags, complaint):
        monkeypatch.chdir(tmp_path)  # where the default outdir would appear
        outdir = tmp_path / "run"
        if "--live" in flags:
            flags = [*flags, "--outdir", str(outdir)]
        assert main(["run", *flags]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and complaint in err
        assert err.count("\n") == 1 and out == ""
        assert not outdir.exists() and not any(tmp_path.iterdir())
