"""The deployment launcher: ``python -m repro launch``.

:class:`LiveCluster` turns one :class:`~repro.deploy.workload.
ClusterSpec` into a running multi-process deployment on localhost: it
becomes the seed of the address book, spawns one OS process per
super-peer and per simple peer (each a ``python -m repro peer``),
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
from ..livedata import LiveDataDriver, UpdateStream
from ..net.simulator import Network
from ..obs import (
    merge_expositions,
    render_prometheus,
    stitch_trace_exports,
    validate_trace_dicts,
)
from ..obs.telemetry import (
    ClusterScraper,
    default_slo_rules,
    render_alert,
    write_diagnostic_bundle,
)
from ..peers.base import Peer
from ..peers.client import ClientPeer
from ..peers.protocol import AdvertisementReply, AdvertisementRequest
from ..transport.live import AsyncioTransport
from ..workload_engine import WorkloadDriver
from .node import export_artifacts
from .supervisor import Supervisor
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
#: Fraction of each base the ``launch --updates`` revision mutates.
UPDATE_RATE = 0.08


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
                 statedir=None, slo_window: float = 120.0,
                 shed_alert: float = 0.25):
        self.spec = spec
        self.outdir = Path(outdir)
        self.host = host
        self.slo_window = slo_window
        self.shed_alert = shed_alert
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
        self.processes: Dict[str, subprocess.Popen] = {}
        self.killed: List[str] = []
        self.restarts: List[str] = []
        self.joined: List[str] = []
        #: exit code of each node's *first* incarnation (a restarted
        #: SIGKILL victim keeps its -9 here while ``exit_codes`` shows
        #: the final process's status)
        self.first_exit_codes: Dict[str, int] = {}
        self._client_counter = 0
        self.clients: Dict[str, ClientPeer] = {}
        #: the one client behind query()/submit(); results are keyed by
        #: query id, so every query can share it
        self._query_client: Optional[ClientPeer] = None
        #: virtual time before which :meth:`query` does not submit again
        self._next_query = 0.0

    # ------------------------------------------------------------------
    # the system facade the workload engine drives
    # ------------------------------------------------------------------
    def add_client(self, peer_id: Optional[str] = None) -> ClientPeer:
        self._client_counter += 1
        client = ClientPeer(
            peer_id or f"client{self._client_counter}",
            config=self.spec.peer_config(),
        )
        client.join(self.network)
        self.clients[client.peer_id] = client
        return client

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, bootstrap_timeout: float = BOOTSTRAP_TIMEOUT) -> None:
        """Bring the cluster up: seed, processes, membership, settling."""
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.transport.start()
        # the scraper's clock reads the transport's virtual units, so
        # live timelines compare 1:1 with simulated ones
        self.scraper = ClusterScraper(
            self.outdir,
            clock=lambda: self.transport.now,
            rules=default_slo_rules(
                shed_bound=self.shed_alert, window=self.slo_window
            ),
            window=self.slo_window,
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
        """The command line one node process is started with."""
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
        self.processes[node_id] = subprocess.Popen(
            self.node_argv(node_id), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

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
        """Bring a late joiner into the running cluster (``--join``):
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
    def submit(self, via: str, text: str):
        """Fire a query without waiting; returns ``(client, query_id)``
        for :meth:`await_result`.  Used by kill runs to overlap a
        SIGTERM with an in-flight query."""
        if self._query_client is None:
            self._query_client = self.add_client()
        return self._query_client, self._query_client.submit(via, text)

    def await_result(self, client, query_id: str, timeout: float = QUERY_TIMEOUT):
        self.transport.run_until(lambda: query_id in client.results, timeout)
        result = client.result(query_id)
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

    def serve(self, spec, settle: float = 200.0, timeout: float = QUERY_TIMEOUT):
        """Drive a :class:`~repro.workload_engine.spec.WorkloadSpec`
        against the live cluster; returns the workload report."""
        driver = WorkloadDriver(self, spec)
        driver.install()
        self.transport.run_until(
            lambda: len(driver.outcomes) >= spec.count, timeout
        )
        self.transport.run(until=self.transport.now + settle)
        return driver.report()

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
        export_artifacts(
            self.outdir, "launcher", self.network, self.transport
        )
        self.transport.close()
        summary = self._merge_artifacts()
        if self.scraper is not None:
            summary["telemetry"] = self.scraper.summary()
            self.scraper.close()
            (self.outdir / "report.json").write_text(
                json.dumps(summary, indent=2, default=str)
            )
        return summary

    def _merge_artifacts(self) -> Dict[str, object]:
        expositions = sorted(self.outdir.glob("*.metrics.prom"))
        merged = merge_expositions([p.read_text() for p in expositions])
        (self.outdir / "merged.metrics.prom").write_text(merged)
        traces = {}
        for path in sorted(self.outdir.glob("*.trace.json")):
            traces[path.name[: -len(".trace.json")]] = json.loads(path.read_text())
        # cross-process stitching: each node exports only its local
        # fragment of a distributed trace; reassemble per trace id and
        # validate the whole causal tree.  The dump is strict JSON —
        # Span.to_dict guarantees scalars, so no default= escape hatch.
        stitched = stitch_trace_exports(list(traces.values()))
        validation = {
            trace_id: problems
            for trace_id, problems in (
                (trace_id, validate_trace_dicts(spans, cross_clock=True))
                for trace_id, spans in sorted(stitched.items())
            )
            if problems
        }
        (self.outdir / "merged.traces.json").write_text(
            json.dumps(
                {
                    "schema": "repro.obs/trace-merge-v1",
                    "nodes": traces,
                    "stitched_traces": len(stitched),
                    "validation": validation,
                },
                indent=2,
            )
        )
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


def register(commands) -> None:
    """Declare ``python -m repro launch``: the deployment (the
    :class:`ClusterSpec` flags), where it runs and what happens to it
    mid-run."""
    launch = commands.add_parser(
        "launch",
        help="deploy a live localhost cluster and drive a workload",
    )
    launch.add_argument("--workload-seed", type=int, default=0,
                        help="dataset/network seed (default 0)")
    launch.add_argument("--peers", type=int, default=3,
                        help="simple-peer count (default 3)")
    launch.add_argument("--super-peers", type=int, default=1,
                        help="super-peer count (default 1)")
    launch.add_argument("--joiners", type=int, default=0,
                        help="extra peers with pre-generated bases that "
                        "join mid-run (default 0)")
    launch.add_argument("--resilient", action="store_true",
                        help="enable the resilience layer (required for "
                        "kill runs)")
    launch.add_argument("--livedata", action="store_true",
                        help="enable the live data plane: top-k cancel "
                        "with paced chunked result streaming")
    launch.add_argument("--host", default="127.0.0.1",
                        help="interface the cluster binds to")
    launch.add_argument("--outdir", default="live-run",
                        help="directory for per-process and merged artifacts")
    launch.add_argument("--statedir", default=None, metavar="DIR",
                        help="durable state root passed to every node "
                        "(defaults to OUTDIR/state when --supervise or "
                        "--restart-after is given)")
    launch.add_argument("--count", type=int, default=6,
                        help="queries to drive against the cluster")
    launch.add_argument("--kill", default=None, metavar="PEER",
                        help="kill this peer halfway through the run "
                        "(requires --resilient for partial answers)")
    launch.add_argument("--kill-signal", choices=("term", "kill"),
                        default="term",
                        help="signal for --kill: term is graceful, kill is "
                        "an abrupt crash (no snapshot, no goodbye)")
    launch.add_argument("--restart-after", type=float, default=None,
                        metavar="SECONDS",
                        help="restart the killed peer this many seconds "
                        "after the kill (the live twin of a CrashEvent "
                        "with recover_at)")
    launch.add_argument("--supervise", action="store_true",
                        help="restart crashed peer processes automatically "
                        "with exponential backoff and a restart-storm "
                        "circuit breaker")
    launch.add_argument("--join", default=None, metavar="PEER",
                        help="spawn this late joiner three quarters into "
                        "the run (name it within --joiners)")
    launch.add_argument("--scrape-every", type=int, default=2,
                        help="scrape every N driven queries (default 2)")
    launch.add_argument("--slo-window", type=float, default=120.0,
                        help="sliding window (virtual units) the SLO "
                        "rules evaluate over")
    launch.add_argument("--shed-alert", type=float, default=0.25,
                        help="shed-rate fraction above which the "
                        "shed-rate SLO fires")
    launch.add_argument("--updates", action="store_true",
                        help="inject a seeded live update stream a third "
                        "of the way into the run: triple inserts/deletes "
                        "and view redefinitions applied by the live "
                        "peers, advertisement deltas flowing to the "
                        "super-peers over the real transport")
    launch.add_argument("--topk", type=int, default=None, metavar="K",
                        help="pose one extra LIMIT-K query near the end "
                        "of the run with any-k early termination "
                        "(enables the live data plane on every node)")
    launch.set_defaults(run=run_launch)


def run_launch(args) -> int:
    """Entry point of the ``python -m repro launch`` subcommand."""
    topk = args.topk
    joiner = args.join
    try:
        # checked before anything is spawned: a bad name would otherwise
        # surface as a KeyError half-way through the run
        spec = ClusterSpec(
            seed=args.workload_seed,
            peers=args.peers,
            super_peers=args.super_peers,
            joiners=args.joiners,
            resilient=args.resilient,
            # top-k cancel needs the nodes' live data plane switched on
            livedata=args.livedata or topk is not None,
        )
        if args.kill is not None and args.kill not in spec.peer_ids():
            raise ValueError(f"--kill {args.kill!r} is not a peer of this "
                             f"cluster ({', '.join(spec.peer_ids())})")
        if joiner is not None and joiner not in spec.joiner_ids():
            raise ValueError(
                f"--join {joiner!r} is not a joiner of this cluster "
                f"({', '.join(spec.joiner_ids()) or 'raise --joiners'})"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kill_signal = args.kill_signal
    restart_after = args.restart_after
    supervise = args.supervise
    statedir = args.statedir
    if statedir is None and (supervise or restart_after is not None):
        # restarted processes need somewhere to recover from
        statedir = str(Path(args.outdir) / "state")
    scrape_every = max(1, args.scrape_every)
    cluster = LiveCluster(
        spec, args.outdir, host=args.host, statedir=statedir,
        slo_window=args.slo_window,
        shed_alert=args.shed_alert,
    )
    print(f"launching {spec.super_peers} super-peer(s) + {spec.peers} peer(s) "
          f"on {args.host} (seed {spec.seed}, "
          f"{'resilient' if spec.resilient else 'baseline'}"
          f"{', supervised' if supervise else ''})")
    outcomes = []
    supervisor = None
    update_driver = None
    #: nodes currently believed dead (killed and not yet restarted)
    down = set()
    kill_time = None
    try:
        cluster.start()
        print(f"cluster up: seed port {cluster.transport.port}, "
              f"book {sorted(cluster.transport.book)}")
        if supervise:
            def _on_restart(node_id: str, attempt: int) -> None:
                write_diagnostic_bundle(
                    cluster.outdir, f"restart-{node_id}-{attempt}",
                    reason="supervised restart", node_ids=(node_id,),
                    scraper=cluster.scraper,
                    details={"attempt": attempt},
                )

            def _on_trip(node_id: str, restarts: int) -> None:
                write_diagnostic_bundle(
                    cluster.outdir, f"breaker-{node_id}",
                    reason="restart-storm circuit breaker tripped",
                    node_ids=(node_id,), scraper=cluster.scraper,
                    details={"restarts": restarts},
                )

            supervisor = Supervisor(
                cluster.processes, cluster.restart_peer,
                on_restart=_on_restart, on_trip=_on_trip,
            )
        kill_index = args.count // 2 if args.kill is not None else None
        join_index = (3 * args.count) // 4 if joiner is not None else None
        update_index = args.count // 3 if args.updates else None
        for index in range(args.count):
            if update_index is not None and index == update_index:
                # only churn the peers that are actually up: joiners
                # hold pre-generated bases but no process yet
                live_bases = {
                    p: cluster.workload.bases[p]
                    for p in spec.peer_ids() if p not in down
                }
                stream = UpdateStream(
                    cluster.workload.synthetic.schema,
                    live_bases,
                    seed=spec.seed,
                    revisions=1,
                    rate=UPDATE_RATE,
                )
                update_driver = LiveDataDriver(cluster, stream)
                print(f"injecting live update revision "
                      f"({stream.total_records()} records, "
                      f"rate {UPDATE_RATE})")
                update_driver.inject(0)
                if not cluster.transport.run_until(
                    lambda: update_driver.acked(1), QUERY_TIMEOUT
                ):
                    print("warning: update revision not fully acked",
                          file=sys.stderr)
            if supervisor is not None:
                for node_id in supervisor.tick():
                    down.discard(node_id)
                    print(f"supervisor restarted {node_id}")
            if (kill_time is not None and restart_after is not None
                    and time.monotonic() - kill_time >= restart_after
                    and args.kill in down):
                print(f"restarting {args.kill} ({restart_after}s after kill)")
                cluster.restart_peer(args.kill)
                down.discard(args.kill)
                if supervisor is not None:
                    supervisor.resume(args.kill)
            if join_index is not None and index == join_index:
                print(f"joining {joiner} mid-run")
                cluster.spawn_peer(joiner)
            rotation = spec.peer_ids() + cluster.joined
            alive = [p for p in rotation if p not in down]
            via = alive[index % len(alive)]
            text = cluster.workload.queries[index % len(cluster.workload.queries)]
            if kill_index is not None and index == kill_index:
                # overlap the kill with an in-flight query so the loss
                # degrades it to a coverage-annotated partial, exactly
                # as a mid-query chaos crash does in-sim
                if via == args.kill:
                    via = next(p for p in alive if p != args.kill)
                client, query_id = cluster.submit(via, text)
                print(f"killing {args.kill} mid-query (SIG{kill_signal.upper()})")
                if restart_after is not None and supervisor is not None:
                    supervisor.expect_down(args.kill)
                cluster.kill_peer(args.kill, sig=kill_signal)
                down.add(args.kill)
                kill_time = time.monotonic()
                if kill_signal == "kill":
                    # the crash black box: the victim's durable flight
                    # record survives the SIGKILL; bundle it now
                    write_diagnostic_bundle(
                        cluster.outdir, f"crash-{args.kill}",
                        reason="SIGKILL crash", node_ids=(args.kill,),
                        scraper=cluster.scraper,
                    )
                result = cluster.await_result(client, query_id)
            else:
                result = cluster.query(via, text)
            status = "error" if result.error else (
                "partial" if result.coverage is not None
                and not result.coverage.is_complete else "ok"
            )
            rows = 0 if result.table is None else len(result.table)
            outcomes.append({"via": via, "status": status, "rows": rows,
                             "error": result.error})
            print(f"  q{index}: via {via} -> {status} ({rows} rows)")
            if index % scrape_every == 0:
                # mid-run scrape: every peer's /metrics + /healthz into
                # the rollups, the timeline, and the SLO watchdogs
                cluster.scrape()
            if supervisor is not None and args.kill in down and restart_after is None:
                # give the backoff clock a chance between queries, so a
                # short run still observes the supervised restart
                time.sleep(supervisor.backoff.base)
        if topk is not None:
            # one LIMIT-k query over the live cluster: the answering
            # peer cancels still-streaming channels once k rows are
            # stable, the ubQL discard working across real sockets
            rotation = spec.peer_ids() + cluster.joined
            alive = [p for p in rotation if p not in down]
            via = alive[0]
            text = cluster.workload.queries[0]
            client = cluster.add_client()
            query_id = client.submit(via, text, limit=topk)
            result = cluster.await_result(client, query_id)
            status = "error" if result.error else "ok"
            rows = 0 if result.table is None else len(result.table)
            outcomes.append({"via": via, "status": status, "rows": rows,
                             "error": result.error, "limit": topk})
            print(f"  top-{topk}: via {via} -> {status} ({rows} rows)")
    finally:
        summary = cluster.shutdown()
    summary["outcomes"] = outcomes
    if update_driver is not None:
        summary["updates"] = {
            "batches_injected": update_driver.injected,
            "acks": len(update_driver.injector.acks),
            "records": update_driver.stream.total_records(),
        }
        print(f"live updates: {update_driver.injected} batch(es), "
              f"{len(update_driver.injector.acks)} ack(s)")
    if topk is not None:
        summary["topk"] = topk
    (cluster.outdir / "report.json").write_text(json.dumps(summary, indent=2))
    print(f"artifacts merged under {cluster.outdir}")
    statuses = {o["status"] for o in outcomes}
    if args.kill is not None and "partial" not in statuses:
        print("warning: kill run produced no partial answers")
    return 0
