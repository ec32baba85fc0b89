"""``run``: one deployment and one scenario, played in the simulator or
``--live``.

The flags build one :class:`~repro.deploy.workload.ClusterSpec` —
super-peers over simple peers (Section 3.1), or with ``--super-peers 0``
an ad-hoc neighbourhood (Section 3.2) — and :func:`build_scenario` turns
the rest into one :class:`~repro.scenario.Scenario`.  That scenario is
played on the spec's in-sim twin
(:func:`~repro.deploy.workload.build_sim_system`), or with ``--live`` on
a :class:`~repro.deploy.launcher.LiveCluster` of OS processes over
localhost TCP.  A flag only one target reads is refused on the other.
With ``--outdir`` both leave one run directory — per-process metric and
trace dumps, their merge, and the SLO ``timeline.jsonl`` — that
``trace``, ``metrics`` and ``alerts`` read.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from ..config import AdmissionControl
from ..deploy.launcher import SLO_WINDOW, LiveCluster
from ..deploy.node import export_artifacts, merge_artifacts
from ..deploy.supervisor import Supervisor
from ..deploy.workload import ClusterSpec, ClusterWorkload, build_sim_system, build_workload
from ..errors import EventBudgetExhausted
from ..livedata import LiveDataDriver, UpdateStream
from ..obs import system_gauges
from ..obs.telemetry import (
    ClusterSeries,
    JsonlSink,
    SLOMonitor,
    TelemetryProbe,
    default_slo_rules,
    record_round,
    render_alert,
    write_diagnostic_bundle,
)
from ..resilience import FaultPlan
from ..resilience.harness import PlayReport
from ..scenario import Crash, Heartbeat, Join, Query, Restart, Scenario, Update, play

#: Fraction of each base one update revision mutates.
UPDATE_RATE = 0.08
#: In-sim: mean query arrivals per unit of virtual time.
ARRIVAL_RATE = 0.2
#: In-sim: how often a shed query is re-offered after its back-off.
SHED_RETRIES = 3
#: In-sim: the event budget of each run of the simulator.
MAX_EVENTS = 2_000_000
#: The flags each target alone reads (``None`` when not given).
SIM_ONLY = ("arrival_rate", "max_concurrent", "max_queued", "fair_quantum", "loss")
LIVE_ONLY = ("host", "scrape_every")


def register(commands) -> None:
    run = commands.add_parser(
        "run",
        help="build one deployment and one scenario from the flags and "
        "play it in the simulator, or with --live on localhost processes",
    )
    run.add_argument("--live", action="store_true",
                     help="play on a live cluster of OS processes over "
                     "localhost TCP (default: the in-sim twin)")
    run.add_argument("--seed", type=int, default=0,
                     help="dataset, network and arrival seed (default 0)")
    run.add_argument("--peers", type=int, default=3,
                     help="simple-peer count (default 3)")
    run.add_argument("--super-peers", type=int, default=1,
                     help="super-peer count (default 1); 0 deploys the "
                     "ad-hoc architecture over a full neighbour mesh "
                     "(sim only)")
    run.add_argument("--joiners", type=int, default=0,
                     help="extra peers that join three quarters into the "
                     "run (default 0)")
    run.add_argument("--resilient", action="store_true",
                     help="enable the resilience layer (partial answers "
                     "around a --kill)")
    run.add_argument("--count", type=int, default=8,
                     help="queries to pose (default 8)")
    run.add_argument("--updates", type=int, default=0, metavar="N",
                     help="live update revisions spread over the run: "
                     "triple inserts/deletes and view redefinitions the "
                     "peers apply while queries are answered")
    run.add_argument("--topk", type=int, default=None, metavar="K",
                     help="pose every query as top-K (LIMIT K) with any-k "
                     "early termination: once K answers are stable the "
                     "coordinator discards the remaining channels")
    run.add_argument("--kill", default=None, metavar="PEER",
                     help="crash this peer halfway through the run, "
                     "overlapping a query")
    run.add_argument("--kill-signal", choices=("term", "kill"), default="term",
                     help="signal for --kill: term is graceful, kill is an "
                     "abrupt crash (no snapshot, no goodbye); in-sim every "
                     "crash is abrupt")
    run.add_argument("--arrival-rate", type=float, default=None,
                     help="sim: mean Poisson arrivals per unit of virtual "
                     f"time (default {ARRIVAL_RATE})")
    run.add_argument("--max-concurrent", type=int, default=None, metavar="N",
                     help="sim: enable admission control, N coordinations "
                     "at once per peer before queueing")
    run.add_argument("--max-queued", type=int, default=None,
                     help="sim: enable admission control, this queue bound "
                     "before shedding (default 16)")
    run.add_argument("--fair-quantum", type=float, default=None, metavar="Q",
                     help="sim: fair per-query scheduling with this "
                     "round-robin quantum")
    run.add_argument("--loss", type=float, default=None, metavar="P",
                     help="sim, with --resilient: once the cluster has "
                     "settled, drop each message with probability P, "
                     "duplicate, delay and jitter some, and let peers "
                     "learn failures only by observation")
    run.add_argument("--host", default=None,
                     help="live: interface the cluster binds to "
                     "(default 127.0.0.1)")
    run.add_argument("--outdir", default=None,
                     help="directory for per-process and merged artifacts "
                     "and the SLO timeline (live default live-run; the "
                     "sim writes nothing without it)")
    run.add_argument("--supervise", action="store_true",
                     help="bring a --kill victim back: live, restart crashed "
                     "peer processes with exponential backoff and a "
                     "restart-storm circuit breaker, from durable state "
                     "under OUTDIR/state; in-sim, restart it at the next "
                     "query's arrival")
    run.add_argument("--scrape-every", type=int, default=None,
                     help="live: scrape every N answered queries (default 2)")
    run.set_defaults(run=_cmd_run)


def _check(args, spec: ClusterSpec) -> None:
    """Refuse a run that cannot happen, before anything is built."""
    other = SIM_ONLY if args.live else LIVE_ONLY
    given = [f"--{name.replace('_', '-')}" for name in other
             if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{', '.join(given)}: "
                         f"{'sim-only, drop' if args.live else 'live-only, add'} --live")
    for flag, value, low in (
        ("--count", args.count, 1), ("--updates", args.updates, 0),
        ("--topk", args.topk, 1), ("--max-concurrent", args.max_concurrent, 1),
        ("--max-queued", args.max_queued, 0), ("--scrape-every", args.scrape_every, 1),
    ):
        if value is not None and value < low:
            raise ValueError(f"{flag} must be >= {low}")
    for flag, value in (("--arrival-rate", args.arrival_rate),
                        ("--fair-quantum", args.fair_quantum)):
        if value is not None and value <= 0:
            raise ValueError(f"{flag} must be positive")
    if args.loss is not None:
        if not spec.resilient:
            raise ValueError("--loss needs --resilient (nothing else "
                             "retransmits what it drops)")
        if not 0.0 <= args.loss <= 1.0:
            raise ValueError("--loss must be a probability in [0, 1]")
    if args.kill is not None:
        if args.kill not in spec.peer_ids():
            raise ValueError(f"--kill {args.kill!r} is not a peer of this "
                             f"cluster ({', '.join(spec.peer_ids())})")
        if spec.peers < 2:
            raise ValueError(f"--kill {args.kill} leaves no peer to pose "
                             f"queries through (raise --peers)")


def build_scenario(args, spec: ClusterSpec, texts: Sequence[str],
                   start: Optional[float] = None) -> Scenario:
    """The run's timeline: ``--count`` queries rotating over the peers
    believed up and cycling over ``texts`` (each ``LIMIT --topk`` when
    given), the ``--updates`` revisions evenly between them, the
    ``--kill`` halfway and the ``--joiners`` three quarters in.  A killed
    peer leaves the rotation; a supervised one is back in it from the
    next query on, by when the supervisor has respawned it.

    Without ``start`` (the live target) events play in sequence, the
    kill overlapping the query after it.  With ``start`` (the sim),
    queries arrive open loop at ``--arrival-rate`` from ``start``, and
    every other event falls at the arrival instant of the query it
    precedes: a supervised victim's :class:`Restart`, and with
    ``--resilient`` two liveness rounds before every query."""
    count, revisions = args.count, args.updates
    steps = []  # (the events before a query, the query)
    rotation, down = spec.peer_ids(), set()
    for index in range(count):
        before = [Update(r) for r in range(1, revisions + 1)
                  if r * count // (revisions + 1) == index]
        if index == (3 * count) // 4 and spec.joiners:
            before += [Join(peer) for peer in spec.joiner_ids()]
            rotation = rotation + spec.joiner_ids()
        alive = [p for p in rotation if p not in down]
        via = alive[index % len(alive)]
        if args.kill is not None and index == count // 2:
            if via == args.kill:
                via = next(p for p in alive if p != args.kill)
            before.append(Crash(args.kill, args.kill_signal, mid_query=start is None))
            down.add(args.kill)
        elif args.supervise and down:
            if start is not None:  # in-sim; live, the supervisor respawns it
                before.append(Restart(args.kill))
            down.clear()
        if spec.resilient and start is not None:
            before += [Heartbeat(), Heartbeat()]
        steps.append((before, Query(via, texts[index % len(texts)], limit=args.topk)))
    if start is None:
        return Scenario(e for before, query in steps for e in (*before, query))
    arrivals = Scenario.arrivals([query for _, query in steps], count,
                                 args.arrival_rate or ARRIVAL_RATE, args.seed,
                                 start=start)
    return Scenario(
        replace(event, at=arrival.at)
        for (before, query), arrival in zip(steps, arrivals)
        for event in (*before, query)
    )


def _update_stream(spec: ClusterSpec, workload: ClusterWorkload,
                   revisions: int) -> UpdateStream:
    """The seeded revisions ``--updates`` injects into the first members."""
    return UpdateStream(
        workload.synthetic.schema, {p: workload.bases[p] for p in spec.peer_ids()},
        seed=spec.seed, revisions=revisions, rate=UPDATE_RATE,
    )


def _describe(event, updates) -> Optional[str]:
    if isinstance(event, Heartbeat):
        return None
    if isinstance(event, Crash) and event.mid_query:
        return f"killed {event.peer} mid-query (SIG{event.signal.upper()})"
    if isinstance(event, Crash):
        return f"killed {event.peer}"
    if isinstance(event, Restart):
        return f"restarted {event.peer}"
    if isinstance(event, Join):
        return f"joined {event.peer} mid-run"
    records = sum(len(b.updates) for b in updates.stream.revisions[event.revision - 1])
    return (f"injected live update revision {event.revision} "
            f"({records} records, rate {UPDATE_RATE})")


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = ClusterSpec(
            seed=args.seed, peers=args.peers, super_peers=args.super_peers,
            joiners=args.joiners, resilient=args.resilient,
            # top-k cancel needs every node's live data plane switched on
            livedata=args.topk is not None,
        )
        _check(args, spec)
        if args.live:
            outdir = Path(args.outdir or "live-run")
            # a supervised restart recovers from somewhere
            cluster = LiveCluster(spec, outdir, host=args.host or "127.0.0.1",
                                  statedir=outdir / "state" if args.supervise else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run_live(args, cluster) if args.live else _run_sim(args, spec)


def _run_sim(args, spec: ClusterSpec) -> int:
    """Play the scenario on the in-sim twin, an uncharged SLO watchdog
    sampling on every answer; print the serving report and any alert.
    With ``--outdir`` leave the run directory a live run leaves."""
    workload = build_workload(spec)
    system = build_sim_system(spec, workload)
    if args.loss is not None:
        # once settled: adverse from the first query on, and realistic
        # (no omniscient bounces), so peers learn failures by observation
        system.network.install_faults(FaultPlan(
            seed=spec.seed + 1, drop_rate=args.loss, duplicate_rate=0.05,
            jitter=0.5, spike_rate=0.05, spike_latency=8.0,
        ))
    if args.max_concurrent is not None or args.max_queued is not None:
        system.enable_admission(AdmissionControl(**{
            name: getattr(args, name) for name in ("max_concurrent", "max_queued")
            if getattr(args, name) is not None
        }))
    if args.fair_quantum is not None:
        system.enable_fair_scheduling(args.fair_quantum)
    updates = None
    if args.updates:
        updates = LiveDataDriver(system, _update_stream(spec, workload, args.updates))
    # the watchdog is pull-based: it reads metrics and schedules nothing,
    # so the run is the bare one
    probe = TelemetryProbe(
        system.network, peers=[*system.peers.values(), *system.super_peers.values()],
    )
    series = ClusterSeries()
    monitor = SLOMonitor(default_slo_rules(), scope="sim", window=SLO_WINDOW)
    alerts = []

    def watch(client, result) -> None:
        sample = probe.sample()
        alerts.extend(record_round(series, monitor, sample.t,
                                   {probe.node_id: sample}, timeline)["alerts"])

    client = system.add_client()
    client.result_listeners.append(watch)
    scenario = build_scenario(args, spec, workload.queries, start=system.network.now)
    architecture = "hybrid" if spec.super_peers else "adhoc"
    print(f"deployment : {architecture}, {spec.super_peers} super-peer(s) + "
          f"{spec.peers} peer(s), seed {spec.seed}, in-sim")

    def on_event(event) -> None:
        line = _describe(event, updates)
        if line is not None:
            print(f"[{system.network.now:.1f}] {line}")

    outcomes = play(scenario, system, client=client, bases=workload.bases,
                    updates=updates, on_event=on_event,
                    shed_retries=SHED_RETRIES, max_events=MAX_EVENTS)
    timeline = outdir = None
    if args.outdir is not None:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        # a run's timeline is its own: a reused --outdir must not replay
        # the previous run's rounds and alerts as this one's
        (outdir / "timeline.jsonl").unlink(missing_ok=True)
        timeline = JsonlSink(outdir / "timeline.jsonl")
    try:
        report = PlayReport.collect(outcomes, system.network)
    except EventBudgetExhausted as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if outdir is not None:
            timeline.close()
            export_artifacts(outdir, "sim", system.network, system_gauges(system))
            merge_artifacts(outdir)
    print(report.render())
    metrics = system.network.metrics
    if updates is not None:
        applied = sum(a.applied for a in updates.injector.acks)
        print(f"updates    : {updates.injected} batches injected "
              f"({applied} statements applied, "
              f"{metrics.messages_by_kind['AdvertiseDelta']} "
              f"advertisement deltas)")
    if args.topk is not None:
        print(f"top-k      : LIMIT {args.topk} on every query, "
              f"{metrics.topk_cancels} early cancels, "
              f"{metrics.discarded_bindings} bindings discarded")
    if args.loss is not None:
        print(f"resilience : loss={args.loss:.0%} retries={metrics.retries} "
              f"retransmits={metrics.retransmits} "
              f"suspicions={metrics.suspicions} "
              f"dropped={metrics.dropped_messages} "
              f"duplicated={metrics.duplicated_messages}")
    for event in alerts:
        print(f"alert      : {render_alert(event)}")
    if outdir is not None:
        print(f"artifacts  : {outdir}")
    silent = report.count("no-reply")
    if silent:
        print(f"WARNING: {silent} queries never got a reply", file=sys.stderr)
        return 1
    return 0


def _run_live(args, cluster: LiveCluster) -> int:
    """Play the scenario on the live cluster and write ``report.json``.
    Supervision and the mid-run scrape react to what happened between
    the answers."""
    spec, workload = cluster.spec, cluster.workload
    scenario = build_scenario(args, spec, workload.queries)
    updates = None
    if args.updates:
        updates = LiveDataDriver(cluster, _update_stream(spec, workload, args.updates))

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

    def on_event(event) -> None:
        print(_describe(event, updates))
        if isinstance(event, Crash) and event.signal == "kill":
            # the crash black box: the victim's durable flight record
            # survives the SIGKILL; bundle it now
            bundle(f"crash-{event.peer}", "SIGKILL crash", event.peer)
        if isinstance(event, Update) and not updates.acked(event.revision):
            print("warning: update revision not fully acked", file=sys.stderr)

    outcomes = play(scenario, cluster, updates=updates, on_event=on_event)
    print(f"launching {spec.super_peers} super-peer(s) + {spec.peers} peer(s) "
          f"on {cluster.host} (seed {spec.seed}, "
          f"{'resilient' if spec.resilient else 'baseline'}"
          f"{', supervised' if supervisor else ''})")
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
            limit = ""
            if query.limit is not None:
                reported[-1]["limit"] = query.limit
                limit = f" top-{query.limit}"
            print(f"  q{index}{limit}: via {query.via} -> {status} ({rows} rows)")
            if index % (args.scrape_every or 2) == 0:
                # mid-run scrape: every peer's /metrics + /healthz into
                # the rollups, the timeline, and the SLO watchdogs
                cluster.scrape()
            if supervisor is not None:
                if set(cluster.killed) - set(cluster.restarts):
                    # give the backoff clock a chance between queries, so
                    # a short run still observes the supervised restart
                    time.sleep(supervisor.backoff.base)
                for node_id in supervisor.tick():
                    print(f"supervisor restarted {node_id}")
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
    if args.kill is not None and "partial" not in {o["status"] for o in reported}:
        print("warning: kill run produced no partial answers")
    return 0
