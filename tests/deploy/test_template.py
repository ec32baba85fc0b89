"""Launched nodes are forked from one warm template process: the
handle the launcher keeps per node, and the template's lifetime."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.deploy import ClusterSpec, LiveCluster
from repro.deploy.template import close_templates

SPEC = ClusterSpec(seed=1, peers=2, super_peers=1)


def _parent(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[1])


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs: an exited process whose parent has
    not reaped it yet (a zombie) does not."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _environment(pid: int) -> dict:
    with open(f"/proc/{pid}/environ", "rb") as handle:
        entries = handle.read().decode().split("\0")
    return dict(entry.split("=", 1) for entry in entries if "=" in entry)


def test_exit_codes_timeout_and_a_restart_from_the_same_template(tmp_path):
    """A SIGKILLed node reads -9 and a SIGTERMed one 0, as Popen reports
    them; ``wait`` on a running node raises ``TimeoutExpired``; the
    victim's restart is a new pid forked by the same template."""
    cluster = LiveCluster(SPEC, tmp_path / "run")
    try:
        cluster.start()
        template = {_parent(p.pid) for p in cluster.processes.values()}
        assert len(template) == 1 and os.getpid() not in template
        victim = cluster.processes["P2"]
        with pytest.raises(subprocess.TimeoutExpired):
            victim.wait(timeout=0.05)
        assert victim.poll() is None
        cluster.kill_peer("P2", sig="kill")
        assert victim.wait(timeout=30) == -signal.SIGKILL
        victim.kill()  # a dead node is not signalled again
        cluster.restart_peer("P2")
        reborn = cluster.processes["P2"]
        assert reborn.pid != victim.pid
        assert {_parent(reborn.pid)} == template
        assert cluster.query("P2", cluster.workload.queries[0]).error is None
    finally:
        summary = cluster.shutdown()
    assert summary["exit_codes"] == {"SP1": 0, "P1": 0, "P2": 0}, summary
    assert summary["first_exit_codes"]["P2"] == -signal.SIGKILL


def test_a_node_refusing_its_command_line_exits_2(tmp_path):
    """The forked child runs the real parser and ``run_node``: a node
    the spec does not name is refused with exit status 2."""
    cluster = LiveCluster(SPEC, tmp_path / "run")
    try:
        cluster._spawn("P9")
        assert cluster.processes["P9"].wait(timeout=30) == 2
        assert cluster.processes["P9"].poll() == 2
    finally:
        cluster.transport.close()


def test_a_node_stopped_during_its_bring_up_exits_gracefully(tmp_path):
    """A SIGTERM that lands while a node is still coming up (just forked,
    or not yet serving) is kept until the node serves, which then stops
    on its graceful path: snapshot, export, exit 0."""
    for attempt in range(10):
        outdir = tmp_path / f"run-{attempt}"
        cluster = LiveCluster(SPEC, outdir)
        cluster._spawn("SP1")
        summary = cluster.shutdown()
        assert summary["exit_codes"] == {"SP1": 0}, (attempt, summary)
        assert (outdir / "SP1.metrics.prom").exists(), attempt


def test_a_second_cluster_reuses_the_template_and_its_timeline_is_fresh(tmp_path):
    """Later clusters fork from the template the first one started, and
    a cluster started in a used run directory starts its own
    ``timeline.jsonl``."""
    templates, rounds = [], []
    for _ in range(2):
        cluster = LiveCluster(SPEC, tmp_path / "run")
        try:
            cluster.start()
            templates.append({_parent(p.pid) for p in cluster.processes.values()})
            cluster.scrape()
        finally:
            cluster.shutdown()
        timeline = (tmp_path / "run" / "timeline.jsonl").read_text()
        rounds.append(timeline.count('"kind": "rollup"'))
    assert templates[0] == templates[1] and len(templates[0]) == 1
    assert rounds == [2, 2]  # the scrape above, and shutdown's last one


def test_a_changed_interpreter_environment_gets_its_own_template(
        tmp_path, monkeypatch):
    """A fork inherits its template's hash seed and ``sys.path``, so a
    cluster started under another ``PYTHONHASHSEED`` or ``PYTHONPATH``
    is forked from a template started with them."""
    extra = tmp_path / "on-the-path"
    extra.mkdir()
    parents = []
    for hash_seed, path in ((None, None), ("123", str(extra))):
        if hash_seed is not None:
            monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
            monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
                filter(None, [path, os.environ.get("PYTHONPATH")])))
        cluster = LiveCluster(SPEC, tmp_path / f"run-{hash_seed}")
        try:
            cluster.start()
            (parent,) = {_parent(p.pid) for p in cluster.processes.values()}
            parents.append(parent)
            environment = _environment(parent)
        finally:
            cluster.shutdown()
    assert parents[0] != parents[1]
    assert environment["PYTHONHASHSEED"] == "123"
    assert str(extra) in environment["PYTHONPATH"].split(os.pathsep)
    close_templates()
    assert not any(_running(pid) for pid in parents)


def test_a_terminated_template_stops_its_nodes_and_is_replaced(tmp_path):
    """SIGTERM to the template stops its nodes gracefully (exit 0, as
    the launcher sees it) before it exits; the next spawn, here the
    super-peer's, starts a new template."""
    cluster = LiveCluster(SPEC, tmp_path / "run")
    try:
        cluster.start()
        (template,) = {_parent(p.pid) for p in cluster.processes.values()}
        os.kill(template, signal.SIGTERM)
        for process in cluster.processes.values():
            assert process.wait(timeout=30) == 0
        stale = cluster.transport.book.get("SP1")  # None once its bye landed
        cluster._spawn("SP1")
        assert _parent(cluster.processes["SP1"].pid) != template
        assert cluster.transport.run_until(
            lambda: cluster.transport.book.get("SP1") not in (None, stale), 2_000.0)
    finally:
        summary = cluster.shutdown()
    assert set(summary["exit_codes"].values()) == {0}, summary
    assert not _running(template)


LAUNCHER = """
import sys
from repro.deploy import ClusterSpec, LiveCluster
from repro.deploy.template import _TEMPLATES
cluster = LiveCluster(ClusterSpec(seed=1, peers=2, super_peers=1), sys.argv[1])
cluster.start()
(template,) = _TEMPLATES.values()
print(template.process.pid, *(p.pid for p in cluster.processes.values()),
      flush=True)
sys.stdin.read()
"""


def test_a_killed_launcher_leaves_no_template_and_no_node(tmp_path):
    """The template's stdin closes with the launcher: it stops every
    node it forked and exits, within seconds of a SIGKILL."""
    env = dict(os.environ)
    source = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    launcher = subprocess.Popen(
        [sys.executable, "-c", LAUNCHER, str(tmp_path / "run")], env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        pids = [int(word) for word in launcher.stdout.readline().split()]
        assert len(pids) == 4 and all(_running(pid) for pid in pids)
    finally:
        launcher.kill()
        launcher.wait(timeout=30)
        launcher.stdin.close()
        launcher.stdout.close()
    deadline = time.monotonic() + 5.0
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in pids if _running(pid)]
