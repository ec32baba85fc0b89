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


class TestTrace:
    def test_trace_check_hybrid(self, capsys):
        assert main(["trace", "--check"]) == 0
        captured = capsys.readouterr()
        assert "query @client1" in captured.out
        assert "route @SP1" in captured.out
        assert "trace OK" in captured.err
        assert "no gaps" in captured.err

    def test_trace_check_adhoc(self, capsys):
        assert main(["trace", "--check", "--arch", "adhoc"]) == 0
        captured = capsys.readouterr()
        assert "delegate @" in captured.out
        assert "trace OK" in captured.err

    def test_trace_json_export(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main(["trace", "--json", str(path)]) == 0
        export = json.loads(path.read_text())
        assert export["schema"] == "repro.obs/trace-v1"
        assert export["traces"][0]["spans"]

    def test_trace_no_events_hides_annotations(self, capsys):
        assert main(["trace", "--arch", "adhoc", "--no-events"]) == 0
        with_flag = capsys.readouterr().out
        assert main(["trace", "--arch", "adhoc"]) == 0
        without_flag = capsys.readouterr().out
        # the delegation rounds annotate events; --no-events drops them
        assert "· " not in with_flag
        assert "· " in without_flag


class TestTraceFollow:
    def test_query_filter_hits(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main(["trace", "--json", str(path)]) == 0
        trace_id = json.loads(path.read_text())["traces"][0]["trace_id"]
        capsys.readouterr()
        assert main(["trace", "--query", trace_id, "--check"]) == 0
        assert "trace OK" in capsys.readouterr().err

    def test_query_filter_miss_lists_available(self, capsys):
        assert main(["trace", "--query", "nope-q9"]) == 1
        err = capsys.readouterr().err
        assert "no trace for query 'nope-q9'" in err
        assert "collected:" in err

    def test_from_export_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main(["trace", "--json", str(path)]) == 0
        trace_id = json.loads(path.read_text())["traces"][0]["trace_id"]
        capsys.readouterr()
        assert main(["trace", "--from", str(path), "--query", trace_id,
                     "--check"]) == 0
        captured = capsys.readouterr()
        assert "query @client1" in captured.out
        assert "trace OK" in captured.err

    def test_from_export_miss(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["trace", "--json", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "--from", str(path), "--query", "absent"]) == 1
        assert "export holds:" in capsys.readouterr().err

    def test_from_unreadable_file(self, tmp_path, capsys):
        assert main(["trace", "--from", str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestMetrics:
    def test_metrics_exposition(self, capsys):
        assert main(["metrics", "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_messages_total counter" in out
        assert 'repro_query_latency_quantile{quantile="p50"}' in out
        assert 'repro_stage_duration_bucket{stage="execute"' in out
        assert "# TYPE repro_peer_gauge gauge" in out

    def test_metrics_adhoc(self, capsys):
        assert main(["metrics", "--arch", "adhoc", "--queries", "1"]) == 0
        assert "repro_messages_total" in capsys.readouterr().out


class TestMetricsWatch:
    def test_watch_without_a_source_is_an_error(self, capsys):
        assert main(["metrics", "--watch", "1"]) == 2
        assert "--watch needs" in capsys.readouterr().err

    def test_scrape_empty_dir(self, tmp_path, capsys):
        assert main(["metrics", "--scrape", str(tmp_path)]) == 1
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
        assert main(["alerts", "--demo"]) == 0
        out = capsys.readouterr().out
        assert "FIRING" in out and "shed-rate" in out
        assert "fired rules:" in out

    def test_no_directory_and_no_demo_is_usage_error(self, capsys):
        assert main(["alerts"]) == 2
        assert "--demo" in capsys.readouterr().err

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
    def test_serve_answers_everything(self, capsys):
        assert main(["serve", "--count", "8", "--clients", "2",
                     "--arrival-rate", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "deployment : hybrid" in out
        assert "8 queries (8 answered" in out
        assert "throughput" in out

    def test_serve_adhoc_closed_loop(self, capsys):
        assert main(["serve", "--arch", "adhoc", "--mode", "closed",
                     "--count", "6", "--clients", "3", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "deployment : adhoc" in out
        assert "0 silent" in out

    def test_serve_with_admission_and_fairness(self, capsys):
        assert main(["serve", "--count", "10", "--max-concurrent", "2",
                     "--max-queued", "8", "--fair-quantum", "0.5",
                     "--arrival-rate", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "10 queries (10 answered" in out

    def test_serve_exhausted_budget_fails_with_diagnostics(self, capsys):
        assert main(["serve", "--count", "8", "--arrival-rate", "5.0",
                     "--max-events", "30"]) == 1
        err = capsys.readouterr().err
        assert "event budget exhausted" in err
        assert "queries in flight" in err


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
    """A crash schedule that cannot happen is refused before anything
    runs: one error line, nothing on stdout."""

    @pytest.mark.parametrize("crash, complaint", [
        ("P9@6:600", "Crash names unknown peer 'P9'"),
        ("P2@50:10", "P2 recovers at 10.0, at or before its crash at 50.0"),
        ("P2@50:50", "P2 recovers at 50.0, at or before its crash at 50.0"),
        ("P2", "--crash expects PEER@AT[:RECOVER], got 'P2'"),
    ], ids=["unknown-peer", "recovery-before-crash", "recovery-at-crash",
            "no-time"])
    def test_impossible_crash(self, capsys, crash, complaint):
        assert main(["chaos", "--crash", crash]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and complaint in err
        assert err.count("\n") == 1 and out == ""


class TestLaunchValidation:
    """Node names are checked against the spec before anything is
    spawned (no outdir appears)."""

    @pytest.mark.parametrize("flags, complaint", [
        (["--kill", "P9"], "--kill 'P9' is not a peer of this cluster (P1, P2, P3)"),
        (["--join", "P9", "--joiners", "1"],
         "--join 'P9' is not a joiner of this cluster (P4)"),
        (["--join", "P4"], "--join 'P4' is not a joiner of this cluster "
                           "(raise --joiners)"),
        (["--peers", "0"], "peers >= 1"),
    ], ids=["kill-unknown", "join-unknown", "join-without-joiners", "no-peers"])
    def test_bad_node_name(self, tmp_path, capsys, flags, complaint):
        outdir = tmp_path / "run"
        assert main(["launch", "--outdir", str(outdir), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and complaint in err
        assert err.count("\n") == 1 and not outdir.exists()
