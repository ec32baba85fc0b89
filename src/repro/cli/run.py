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
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from ..config import AdmissionControl
from ..deploy.launcher import LiveCluster
from ..deploy.node import export_artifacts, merge_artifacts
from ..deploy.workload import ClusterSpec, ClusterWorkload, build_sim_system, build_workload
from ..errors import NetworkError
from ..livedata import LiveDataDriver, UpdateStream
from ..obs import system_gauges
from ..obs.telemetry import (
    ClusterScraper,
    TelemetryProbe,
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
LIVE_ONLY = ("host",)


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
                     help="restart the --kill victim before the next query "
                     "(live, a new process recovering from durable state "
                     "under OUTDIR/state)")
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
        ("--max-queued", args.max_queued, 0),
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
    if args.supervise and args.kill is None:
        raise ValueError("--supervise restarts the --kill victim; "
                         "without --kill nothing goes down")
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
    peer leaves the rotation; with ``--supervise`` its :class:`Restart`
    comes before the next query, and it is back in the rotation from the
    query after that.

    Without ``start`` (the live target) events play in sequence, the
    kill overlapping the query after it.  With ``start`` (the sim),
    queries arrive open loop at ``--arrival-rate`` from ``start``, and
    every other event falls at the arrival instant of the query it
    precedes, and with ``--resilient`` two liveness rounds come before
    every query."""
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
    """Build the target, play the scenario on it with the SLO watchdog
    taking one round per answer, print the serving report and leave the
    run directory.  Only building the target and tearing it down depend
    on which one it is."""
    outdir = Path(args.outdir) if args.outdir is not None else None

    def on_event(event) -> None:
        line = _describe(event, updates)
        if line is not None:
            print(f"[{target.network.now:.1f}] {line}")
        if event.at is not None:
            return  # armed on the sim's clock: nothing was waited for
        if isinstance(event, Crash) and event.signal == "kill":
            # the crash black box: the victim's durable flight record
            # survives the SIGKILL; bundle it now
            write_diagnostic_bundle(outdir, f"crash-{event.peer}",
                                    reason="SIGKILL crash", node_ids=(event.peer,),
                                    scraper=scraper)
        if isinstance(event, Update) and not updates.acked(event.revision):
            print("warning: update revision not fully acked", file=sys.stderr)

    try:
        spec = ClusterSpec(
            seed=args.seed, peers=args.peers, super_peers=args.super_peers,
            joiners=args.joiners, resilient=args.resilient,
            # top-k cancel needs every node's live data plane switched on
            livedata=args.topk is not None,
        )
        _check(args, spec)
        if args.live:
            outdir = outdir or Path("live-run")
            # a supervised restart recovers from somewhere
            target = LiveCluster(spec, outdir, host=args.host or "127.0.0.1",
                                 statedir=outdir / "state" if args.supervise else None)
            workload, client = target.workload, target.client
            start, where = None, f"live on {target.host}"
        else:
            workload = build_workload(spec)
            target = build_sim_system(spec, workload)
            if args.loss is not None:
                # once settled: adverse from the first query on, and
                # realistic (no omniscient bounces), so peers learn
                # failures by observation
                target.network.install_faults(FaultPlan(
                    seed=spec.seed + 1, drop_rate=args.loss, duplicate_rate=0.05,
                    jitter=0.5, spike_rate=0.05, spike_latency=8.0,
                ))
            if args.max_concurrent is not None or args.max_queued is not None:
                target.enable_admission(AdmissionControl(**{
                    name: getattr(args, name) for name in ("max_concurrent", "max_queued")
                    if getattr(args, name) is not None
                }))
            if args.fair_quantum is not None:
                target.enable_fair_scheduling(args.fair_quantum)
            client = target.add_client()
            start, where = target.network.now, "in-sim"
        updates = None
        if args.updates:
            updates = LiveDataDriver(target, _update_stream(spec, workload, args.updates))
        scenario = build_scenario(args, spec, workload.queries, start=start)
        # checks the scenario against the target before any process starts
        outcomes = play(scenario, target, client=client, bases=workload.bases,
                        updates=updates, on_event=on_event,
                        shed_retries=SHED_RETRIES, max_events=MAX_EVENTS)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    queries = [event for event in scenario if isinstance(event, Query)]
    reported = []

    def echo(outcomes):
        for query, outcome in zip(queries, outcomes):
            status = "ok" if outcome.status == "full" else outcome.status
            rows = outcome.rows or 0
            reported.append({"via": query.via, "status": status, "rows": rows,
                             "error": outcome.error})
            limit = ""
            if query.limit is not None:
                reported[-1]["limit"] = query.limit
                limit = f" top-{query.limit}"
            print(f"  {outcome.query_id}{limit}: via {query.via} -> {status} ({rows} rows)")
            yield outcome

    architecture = "hybrid" if spec.super_peers else "adhoc"
    print(f"deployment : {architecture}, {spec.super_peers} super-peer(s) + "
          f"{spec.peers} peer(s), seed {spec.seed}, {where}")
    report = scraper = None
    try:
        if args.live:
            target.start()
            scraper = target.scraper
        else:
            # pull-based: it reads metrics and schedules nothing, so the
            # run is the bare one
            scraper = ClusterScraper(outdir, probe=TelemetryProbe(
                target.network,
                peers=[*target.peers.values(), *target.super_peers.values()],
            ))
        # a round at each answer's own instant, not when play yields it
        client.result_listeners.append(lambda client, result: scraper.scrape_once())
        report = PlayReport.collect(echo(outcomes), target.network)
    except NetworkError as exc:  # an exhausted event budget, a live wait timed out
        print(f"run failed: {exc}", file=sys.stderr)
    finally:
        if args.live:
            target.shutdown(report=_report_fields(args, updates, reported))
        else:
            if scraper is not None:
                scraper.close()
            if outdir is not None:
                export_artifacts(outdir, "sim", target.network, system_gauges(target))
                merge_artifacts(outdir)
    if report is None:
        return 1
    print(report.render())
    # the coordinators' counters: live, they are metered in the node
    # processes, not by the launcher, so none of them is printed
    metrics = None if args.live else target.network.metrics
    if updates is not None:
        applied = sum(a.applied for a in updates.injector.acks)
        deltas = ("" if metrics is None else
                  f", {metrics.messages_by_kind['AdvertiseDelta']} "
                  f"advertisement deltas")
        print(f"updates    : {updates.injected} batches injected, "
              f"{len(updates.injector.acks)} acked "
              f"({applied} statements applied{deltas})")
    if args.topk is not None:
        cancels = ("" if metrics is None else
                   f", {metrics.topk_cancels} early cancels, "
                   f"{metrics.discarded_bindings} bindings discarded")
        print(f"top-k      : LIMIT {args.topk} on every query{cancels}")
    if args.loss is not None:
        print(f"resilience : loss={args.loss:.0%} retries={metrics.retries} "
              f"retransmits={metrics.retransmits} "
              f"suspicions={metrics.suspicions} "
              f"dropped={metrics.dropped_messages} "
              f"duplicated={metrics.duplicated_messages}")
    for event in scraper.monitor.history:
        print(f"alert      : {render_alert(event)}")
    if outdir is not None:
        print(f"artifacts  : {outdir}")
    silent = report.count("no-reply")
    if silent:
        print(f"WARNING: {silent} queries never got a reply", file=sys.stderr)
        return 1
    return 0


def _report_fields(args, updates, reported) -> dict:
    """What ``run`` adds to a live ``report.json``."""
    fields = {"outcomes": reported}
    if updates is not None:
        fields["updates"] = {
            "batches_injected": updates.injected,
            "acks": len(updates.injector.acks),
            "records": updates.stream.total_records(),
        }
    if args.topk is not None:
        fields["topk"] = args.topk
    return fields
