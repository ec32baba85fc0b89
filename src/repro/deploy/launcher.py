"""The deployment launcher behind ``python -m repro run --live``.

:class:`LiveCluster` turns one :class:`~repro.deploy.workload.
ClusterSpec` into a running multi-process deployment on localhost: it
becomes the seed of the address book, starts one OS process per
super-peer and per simple peer (each runs ``python -m repro peer``'s
argv, forked from one warm template process: :mod:`.template`),
waits for membership and advertisement settling, drives the cluster's
query workload through client peers living in the launcher process,
and tears everything down — collecting each process's metrics/trace
exports and merging them into cluster-wide artifacts.

A mid-run ``kill_peer`` SIGTERMs one process; the cluster degrades the
same way a chaos run does in-sim — dial give-ups bounce as
:class:`~repro.net.message.DeliveryFailure`, channels replan around the
loss, and answers arrive as coverage-annotated partials.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import NetworkError
from ..net.simulator import Network
from ..obs.telemetry import (
    ClusterScraper,
    default_slo_rules,
    render_alert,
)
from ..peers.base import Peer
from ..peers.client import ClientPeer
from ..peers.protocol import AdvertisementReply, AdvertisementRequest
from ..transport.live import AsyncioTransport
from .node import export_artifacts, merge_artifacts
from .template import NodeProcess, fork_node
from .workload import ClusterSpec, ClusterWorkload, build_workload

#: Virtual-time budget for cluster bring-up (membership + settling).
BOOTSTRAP_TIMEOUT = 2_000.0
#: Virtual-time budget for one query to complete.
QUERY_TIMEOUT = 4_000.0
#: First re-probe delay (virtual units) while waiting for advertisements
#: to land; doubles per round.  A reply that shows them landed ends the
#: wait at once, the back-off only paces the asking.
SETTLE_BACKOFF = 0.25
#: Virtual-time units between the starts of consecutive
#: :meth:`LiveCluster.query` calls (18 ms at the default time scale): the
#: closed loop is paced, so its rate is this interval's and not whatever
#: the host's CPU makes of the ~5-17 ms an answer takes.  ``submit`` and
#: ``await_result`` are not paced.
QUERY_INTERVAL = 0.9
#: Sliding window (virtual units) the SLO rules evaluate over.
SLO_WINDOW = 120.0


class _Probe(Peer):
    """A launcher-side peer that pulls advertisement registries, used
    to observe when the cluster's advertisement push has settled."""

    def __init__(self, peer_id: str = "launcher-probe"):
        super().__init__(peer_id)
        self.registries: Dict[str, set] = {}

    def handle_AdvertisementReply(self, message) -> None:
        reply: AdvertisementReply = message.payload
        self.registries[reply.from_peer] = {
            a.peer_id for a in reply.schemas if a.peer_id
        }

    def poll(self, super_id: str) -> None:
        self.registries.pop(super_id, None)
        self.send(super_id, AdvertisementRequest(self.peer_id))


class LiveCluster:
    """A running live deployment of one cluster spec.

    Usage::

        cluster = LiveCluster(spec, outdir)
        cluster.start()
        try:
            result = cluster.query("P1", text)
        finally:
            cluster.shutdown()
    """

    def __init__(self, spec: ClusterSpec, outdir, host: str = "127.0.0.1",
                 statedir=None):
        if spec.super_peers < 1:
            raise ValueError("a live cluster needs super-peers >= 1 "
                             "(the ad-hoc architecture runs in the sim only)")
        self.spec = spec
        self.outdir = Path(outdir)
        self.host = host
        self.scraper: Optional[ClusterScraper] = None
        #: per-node durable state root; None keeps peers ephemeral
        self.statedir = Path(statedir) if statedir is not None else None
        self.workload: ClusterWorkload = build_workload(spec)
        self.transport = AsyncioTransport(
            host=host, port=0, seed=None, time_scale=spec.time_scale
        )
        self.network = Network(seed=spec.seed, transport=self.transport)
        if self.network.tracer.enabled:
            # same id disambiguation the node processes apply
            self.network.tracer.id_suffix = "@launcher"
        self.probe = _Probe()
        self.probe.join(self.network)
        self.processes: Dict[str, NodeProcess] = {}
        self.killed: List[str] = []
        self.restarts: List[str] = []
        self.joined: List[str] = []
        #: exit code of each node's *first* incarnation (a restarted
        #: SIGKILL victim keeps its -9 here while ``exit_codes`` shows
        #: the final process's status)
        self.first_exit_codes: Dict[str, int] = {}
        #: the one client behind query()/submit(), from the first
        #: submission on; results are keyed by query id, so every query
        #: can share it
        self.clients: Dict[str, ClientPeer] = {}
        #: virtual time before which :meth:`query` does not submit again
        self._next_query = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, bootstrap_timeout: float = BOOTSTRAP_TIMEOUT) -> None:
        """Bring the cluster up: seed, processes, membership, settling."""
        self.outdir.mkdir(parents=True, exist_ok=True)
        # a fresh timeline per run (the scraper appends to what it finds)
        (self.outdir / "timeline.jsonl").unlink(missing_ok=True)
        self.transport.start()
        # the scraper's clock reads the transport's virtual units, so
        # live timelines compare 1:1 with simulated ones
        self.scraper = ClusterScraper(
            self.outdir,
            clock=lambda: self.transport.now,
            rules=default_slo_rules(),
            window=SLO_WINDOW,
        )
        for node_id in self.spec.super_ids() + self.spec.peer_ids():
            self._spawn(node_id)
        expected = set(self.spec.super_ids()) | set(self.spec.peer_ids())
        if not self.transport.run_until(
            lambda: expected <= set(self.transport.book), bootstrap_timeout
        ):
            missing = expected - set(self.transport.book)
            raise NetworkError(f"cluster bootstrap timed out; missing {sorted(missing)}")
        self._settle_advertisements(bootstrap_timeout)

    def node_argv(self, node_id: str) -> List[str]:
        """The command line one node process is started with (a forked
        node runs it from ``argv[3:]``; by hand it is a whole command)."""
        argv = [
            sys.executable, "-m", "repro", "peer",
            "--node-id", node_id,
            "--seed", f"{self.host}:{self.transport.port}",
            "--host", self.host,
            "--outdir", str(self.outdir),
            "--spec", self.spec.to_json(),
        ]
        if self.statedir is not None:
            argv += ["--statedir", str(self.statedir)]
        return argv

    def _spawn(self, node_id: str) -> None:
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        self.processes[node_id] = fork_node(self.node_argv(node_id), env)

    def _settle_advertisements(self, timeout: float) -> None:
        """Wait until each clustered peer's advertisement has landed at
        its super-peer (a deterministic alternative to the in-sim
        ``system.run()`` settle)."""
        self._settle(
            {
                super_id: {p for p in self.spec.peer_ids()
                           if self.spec.home_for(p) == super_id}
                for super_id in self.spec.super_ids()
            },
            timeout,
            "advertisements never settled on the backbone",
        )

    def _settle(self, wanted: Dict[str, set], timeout: float, failure: str) -> None:
        """Probe super-peers' registries until each holds its ``wanted``
        peers.  The wait ends with the reply that shows it; a reply that
        does not is followed by a re-probe on a doubling back-off."""
        deadline = self.transport.now + timeout
        backoff = SETTLE_BACKOFF

        def unsettled() -> List[str]:
            return [s for s in wanted
                    if not wanted[s] <= self.probe.registries.get(s, set())]

        while True:
            for super_id in unsettled():
                self.probe.poll(super_id)
            if self.transport.run_until(
                lambda: not unsettled(),
                min(backoff, deadline - self.transport.now),
            ):
                return
            if self.transport.now >= deadline:
                raise NetworkError(failure)
            backoff *= 2.0

    def scrape(self) -> Optional[Dict[str, object]]:
        """One mid-run telemetry round over every peer's endpoints;
        returns the cluster rollup (with alert transitions) or ``None``
        before :meth:`start`."""
        if self.scraper is None:
            return None
        rollup = self.scraper.scrape_once()
        for event in rollup.get("alerts", ()):
            print(f"  ALERT {render_alert(event)}")
        return rollup

    def kill_peer(self, node_id: str, sig: str = "term") -> None:
        """Kill one process mid-run (the live analogue of a chaos
        ``peer_down`` injection).  ``sig="term"`` lets the node flush
        its artifacts and snapshot; ``sig="kill"`` is the real crash —
        no snapshot, no goodbye, a stale address-book entry left behind.
        """
        process = self.processes[node_id]
        process.send_signal(signal.SIGKILL if sig == "kill" else signal.SIGTERM)
        self.killed.append(node_id)

    def restart_peer(self, node_id: str, timeout: float = BOOTSTRAP_TIMEOUT) -> None:
        """Respawn a dead node and wait until it is back in the overlay.

        A SIGKILL'd node's stale address-book entry still names the old
        port, so "back" means the book announces a *different* address
        for it; the fresh process recovers from its durable state (when
        the cluster runs with one) and re-advertises with the rejoin
        flag.
        """
        old = self.processes.get(node_id)
        if old is not None:
            try:
                old.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                old.kill()
                old.wait()
            self.first_exit_codes.setdefault(node_id, old.returncode)
        stale = self.transport.book.get(node_id)
        self._spawn(node_id)
        if not self.transport.run_until(
            lambda: self.transport.book.get(node_id) not in (None, stale), timeout
        ):
            raise NetworkError(f"restarted {node_id} never rejoined the address book")
        self._settle_peer(node_id, timeout)
        self.restarts.append(node_id)

    def spawn_peer(self, node_id: str, timeout: float = BOOTSTRAP_TIMEOUT) -> None:
        """Bring a late joiner into the running cluster:
        spawn its process, wait for membership, wait until its
        advertisement lands at its home super-peer."""
        self._spawn(node_id)
        if not self.transport.run_until(
            lambda: node_id in self.transport.book, timeout
        ):
            raise NetworkError(f"joiner {node_id} never reached the address book")
        self._settle_peer(node_id, timeout)
        self.joined.append(node_id)

    def _settle_peer(self, node_id: str, timeout: float) -> None:
        """Wait until the node's advertisement is registered at its
        home super-peer."""
        home = self.spec.home_for(node_id)
        self._settle(
            {home: {node_id}}, timeout,
            f"{node_id}'s advertisement never settled at {home}",
        )

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def submit(self, via: str, text: str, limit: Optional[int] = None):
        """Fire a query without waiting; returns ``(client, query_id)``
        for :meth:`await_result`.  ``limit`` asks for a top-``limit``
        answer.  Every query goes through the one launcher client."""
        client = self.clients.get("client1")
        if client is None:
            client = ClientPeer("client1", config=self.spec.peer_config())
            client.join(self.network)
            self.clients[client.peer_id] = client
        return client, client.submit(via, text, limit=limit)

    def await_result(self, client, query_id: str, timeout: float = QUERY_TIMEOUT):
        """Wait for the answer and take it out of ``client``, so a long
        run's client holds no answered query."""
        self.transport.run_until(lambda: query_id in client.results, timeout)
        result = client.results.pop(query_id, None)
        if result is None:
            raise NetworkError(f"query {query_id} timed out live")
        return result

    def query(self, via: str, text: str, timeout: float = QUERY_TIMEOUT):
        """One query to completion; returns the
        :class:`~repro.peers.client.QueryResult` (table, error or
        coverage-annotated partial).  Consecutive calls start at least
        :data:`QUERY_INTERVAL` apart; the wait for the answer itself is
        event-driven."""
        self.transport.run(until=self._next_query)  # returns at once when past
        self._next_query = self.transport.now + QUERY_INTERVAL
        client, query_id = self.submit(via, text)
        return self.await_result(client, query_id, timeout)

    # ------------------------------------------------------------------
    # teardown and artifacts
    # ------------------------------------------------------------------
    def shutdown(self, grace: float = 10.0) -> Dict[str, object]:
        """Stop every process, export and merge artifacts.

        Returns the run summary written to ``report.json``.
        """
        # one last scrape while the endpoints are still alive, so the
        # timeline's final round reflects the cluster at teardown
        if self.scraper is not None:
            try:
                self.scraper.scrape_once()
            except Exception:
                pass  # teardown must proceed even if a peer died racing us
        for node_id, process in self.processes.items():
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + grace
        for node_id, process in self.processes.items():
            try:
                process.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        export_artifacts(self.outdir, "launcher", self.network)
        self.transport.close()
        merge_artifacts(self.outdir)
        summary = self._summary()
        if self.scraper is not None:
            summary["telemetry"] = self.scraper.summary()
            self.scraper.close()
            (self.outdir / "report.json").write_text(
                json.dumps(summary, indent=2, default=str)
            )
        return summary

    def _summary(self) -> Dict[str, object]:
        summary = {
            "spec": asdict(self.spec),
            "killed": list(self.killed),
            "restarts": list(self.restarts),
            "joined": list(self.joined),
            "exit_codes": {
                node_id: process.returncode
                for node_id, process in self.processes.items()
            },
            "first_exit_codes": {
                node_id: self.first_exit_codes.get(node_id, process.returncode)
                for node_id, process in self.processes.items()
            },
            "artifacts": sorted(p.name for p in self.outdir.iterdir()),
        }
        (self.outdir / "report.json").write_text(json.dumps(summary, indent=2))
        return summary
