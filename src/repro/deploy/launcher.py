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

import itertools
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
from ..scenario import Crash, Join, Query, Scenario, Update, play
from ..transport.live import AsyncioTransport
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
        self.transport.start()
        # the scraper's clock reads the transport's virtual units, so
        # live timelines compare 1:1 with simulated ones
        self.scraper = ClusterScraper(
            self.outdir,
            clock=lambda: self.transport.now,
            rules=default_slo_rules(shed_bound=self.shed_alert),
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
                        "after the kill (the live twin of a Crash followed "
                        "by a Restart)")
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


def _launch_scenario(spec: ClusterSpec, queries: List[str], args) -> Scenario:
    """The timeline ``launch`` plays: ``--count`` queries rotating over
    the peers believed up, the ``--updates`` revision a third of the way
    in, the ``--kill`` overlapping the query halfway, the ``--join``
    three quarters in, and the ``--topk`` query last.  A killed peer
    leaves the rotation; a supervised one (no ``--restart-after``) is
    back in it from the second query after the kill, by when the
    supervisor has respawned it."""
    count = args.count
    events = []
    rotation = spec.peer_ids()
    down = set()
    texts = itertools.cycle(queries)
    for index in range(count):
        if args.updates and index == count // 3:
            events.append(Update(1))
        if args.join is not None and index == (3 * count) // 4:
            events.append(Join(args.join))
            rotation = rotation + [args.join]
        alive = [p for p in rotation if p not in down]
        via = alive[index % len(alive)]
        if args.kill is not None and index == count // 2:
            # overlap the kill with an in-flight query so the loss
            # degrades it to a coverage-annotated partial, exactly as a
            # mid-query chaos crash does in-sim
            if via == args.kill:
                via = next(p for p in alive if p != args.kill)
            events.append(Crash(args.kill, args.kill_signal, mid_query=True))
            down.add(args.kill)
        elif args.supervise and args.restart_after is None:
            down.clear()  # respawned before the next query
        events.append(Query(via, next(texts)))
    if args.topk is not None:
        # one LIMIT-k query over the live cluster: the answering peer
        # cancels still-streaming channels once k rows are stable, the
        # ubQL discard working across real sockets
        alive = [p for p in rotation if p not in down]
        events.append(Query(alive[0], queries[0], limit=args.topk))
    return Scenario(events)


def run_launch(args) -> int:
    """Entry point of the ``python -m repro launch`` subcommand: parse
    the flags, build the scenario, play it on a live cluster, write the
    report.  Supervision, ``--restart-after`` and the mid-run scrape
    react to what happened between the answers."""
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
            livedata=args.livedata or args.topk is not None,
        )
        if args.kill is not None and args.kill not in spec.peer_ids():
            raise ValueError(f"--kill {args.kill!r} is not a peer of this "
                             f"cluster ({', '.join(spec.peer_ids())})")
        if args.join is not None and args.join not in spec.joiner_ids():
            raise ValueError(
                f"--join {args.join!r} is not a joiner of this cluster "
                f"({', '.join(spec.joiner_ids()) or 'raise --joiners'})"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    restart_after = args.restart_after
    statedir = args.statedir
    if statedir is None and (args.supervise or restart_after is not None):
        # restarted processes need somewhere to recover from
        statedir = str(Path(args.outdir) / "state")
    cluster = LiveCluster(spec, args.outdir, host=args.host, statedir=statedir,
                          slo_window=args.slo_window, shed_alert=args.shed_alert)
    workload = cluster.workload
    scenario = _launch_scenario(spec, workload.queries, args)
    updates = None
    if args.updates:
        live_bases = {p: workload.bases[p] for p in spec.peer_ids()}
        updates = LiveDataDriver(cluster, UpdateStream(
            workload.synthetic.schema, live_bases, seed=spec.seed,
            revisions=1, rate=UPDATE_RATE,
        ))

    def bundle(name: str, reason: str, node_id: str, **details) -> None:
        write_diagnostic_bundle(cluster.outdir, name, reason=reason,
                                node_ids=(node_id,), scraper=cluster.scraper,
                                details=details or None)

    supervisor = Supervisor(
        cluster.processes, cluster.restart_peer,
        on_restart=lambda node_id, attempt: bundle(
            f"restart-{node_id}-{attempt}", "supervised restart", node_id,
            attempt=attempt),
        on_trip=lambda node_id, restarts: bundle(
            f"breaker-{node_id}", "restart-storm circuit breaker tripped",
            node_id, restarts=restarts),
    ) if args.supervise else None
    kill_time = None

    def on_event(event) -> None:
        nonlocal kill_time
        if isinstance(event, Crash):
            print(f"killed {event.peer} mid-query (SIG{event.signal.upper()})")
            kill_time = time.monotonic()
            if restart_after is not None and supervisor is not None:
                supervisor.expect_down(event.peer)
            if event.signal == "kill":
                # the crash black box: the victim's durable flight
                # record survives the SIGKILL; bundle it now
                bundle(f"crash-{event.peer}", "SIGKILL crash", event.peer)
        elif isinstance(event, Join):
            print(f"joined {event.peer} mid-run")
        else:
            print(f"injected live update revision ({updates.stream.total_records()}"
                  f" records, rate {UPDATE_RATE})")
            if not updates.acked(event.revision):
                print("warning: update revision not fully acked", file=sys.stderr)

    def down() -> set:
        """The nodes killed and not restarted since."""
        return set(cluster.killed) - set(cluster.restarts)

    outcomes = play(scenario, cluster, updates=updates, on_event=on_event)
    print(f"launching {spec.super_peers} super-peer(s) + {spec.peers} peer(s) "
          f"on {args.host} (seed {spec.seed}, "
          f"{'resilient' if spec.resilient else 'baseline'}"
          f"{', supervised' if args.supervise else ''})")
    reported = []
    try:
        cluster.start()
        print(f"cluster up: seed port {cluster.transport.port}, "
              f"book {sorted(cluster.transport.book)}")
        queries = [event for event in scenario if isinstance(event, Query)]
        for index, (query, outcome) in enumerate(zip(queries, outcomes)):
            status = "ok" if outcome.status == "full" else outcome.status
            rows = outcome.rows or 0
            reported.append({"via": query.via, "status": status, "rows": rows,
                             "error": outcome.error})
            if query.limit is not None:
                reported[-1]["limit"] = query.limit
                print(f"  top-{query.limit}: via {query.via} -> {status} "
                      f"({rows} rows)")
                continue
            print(f"  q{index}: via {query.via} -> {status} ({rows} rows)")
            if index % max(1, args.scrape_every) == 0:
                # mid-run scrape: every peer's /metrics + /healthz into
                # the rollups, the timeline, and the SLO watchdogs
                cluster.scrape()
            if supervisor is not None:
                if down() and restart_after is None:
                    # give the backoff clock a chance between queries, so
                    # a short run still observes the supervised restart
                    time.sleep(supervisor.backoff.base)
                for node_id in supervisor.tick():
                    print(f"supervisor restarted {node_id}")
            if (restart_after is not None and args.kill in down()
                    and time.monotonic() - kill_time >= restart_after):
                print(f"restarting {args.kill} ({restart_after}s after kill)")
                cluster.restart_peer(args.kill)
                if supervisor is not None:
                    supervisor.resume(args.kill)
    finally:
        summary = cluster.shutdown()
    summary["outcomes"] = reported
    if updates is not None:
        summary["updates"] = {
            "batches_injected": updates.injected,
            "acks": len(updates.injector.acks),
            "records": updates.stream.total_records(),
        }
        print(f"live updates: {updates.injected} batch(es), "
              f"{len(updates.injector.acks)} ack(s)")
    if args.topk is not None:
        summary["topk"] = args.topk
    (cluster.outdir / "report.json").write_text(json.dumps(summary, indent=2))
    print(f"artifacts merged under {cluster.outdir}")
    statuses = {o["status"] for o in reported}
    if args.kill is not None and "partial" not in statuses:
        print("warning: kill run produced no partial answers")
    return 0
