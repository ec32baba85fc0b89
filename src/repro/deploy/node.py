"""One OS process of a live deployment: ``python -m repro peer``.

A launched node runs this command's argv in a process forked from the
launcher's warm template (:mod:`repro.deploy.template`); a hand-built
cluster starts each node as a whole ``python -m repro peer`` command.

A node process hosts exactly one protocol peer (a super-peer or a
simple peer) on its own :class:`~repro.transport.AsyncioTransport`,
rebuilds its slice of the cluster workload from the shared
:class:`~repro.deploy.workload.ClusterSpec`, announces itself to the
seed, and serves until SIGTERM.  On shutdown it exports its metrics
(Prometheus text tagged with ``peer_id``/``pid``/``transport`` const
labels) and its trace spans into the run's output directory, says a
graceful bye, and exits 0.

The node runs :meth:`ClusterSpec.peer_config` — the same value the
in-sim twin's peers carry — minus the heartbeat layer: live deployments
have no heartbeat emitters driving the failure detector, so
``watch_cluster`` would suspect every peer.  Failure detection instead
rides on the transport's dial-give-up bounces, which produce the same
:class:`~repro.net.message.DeliveryFailure` signal chaos runs do.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path
from typing import List, Tuple

from ..durability import FileStore, PeerStateStore
from ..net.simulator import Network
from ..obs import (
    merge_expositions,
    peer_gauges,
    render_prometheus,
    stitch_trace_exports,
    validate_trace_dicts,
)
from ..obs.telemetry import (
    JsonlSink,
    SlowQueryLog,
    TelemetryProbe,
    TelemetryServer,
    write_endpoint_file,
)
from ..peers.base import PeerBase
from ..peers.super import SuperPeer
from ..systems.hybrid import HybridPeer
from ..transport.live import AsyncioTransport
from .workload import ClusterSpec, build_workload

#: Virtual-time backstop: a node exits on its own after this long even
#: if nothing ever stops it.  A launched node is stopped by the template
#: it was forked from (``deploy/template.py``) when the launcher exits or
#: crashes; this bound is what remains for a hand-started node.
LIFETIME = 30_000.0
#: Virtual-time latency above which a query's full trace is dumped to
#: the slow-query log.
SLOW_QUERY_THRESHOLD = 500.0


def register(commands) -> None:
    """Declare ``python -m repro peer``: where this process listens and
    writes, plus the cluster it belongs to as one ``--spec`` value."""
    peer = commands.add_parser(
        "peer",
        help="one node process of a live deployment (spawned by run --live)",
    )
    peer.add_argument("--node-id", required=True,
                      help="protocol peer hosted by this process (P1, SP1, ...)")
    peer.add_argument("--seed", required=True, metavar="HOST:PORT",
                      help="address of the seed process (the launcher)")
    peer.add_argument("--spec", required=True, metavar="JSON",
                      help="the deployment's ClusterSpec as JSON, e.g. "
                      '\'{"seed": 0, "peers": 3}\' (omitted fields keep '
                      "their defaults; every process of one cluster must "
                      "be given the same value)")
    peer.add_argument("--host", default="127.0.0.1",
                      help="interface to listen on")
    peer.add_argument("--port", type=int, default=0,
                      help="listening port (0 picks a free one)")
    peer.add_argument("--telemetry-port", type=int, default=0,
                      help="/metrics /healthz /tracez endpoint port "
                      "(0 picks a free one)")
    peer.add_argument("--outdir", required=True,
                      help="directory for metrics/trace exports")
    peer.add_argument("--statedir", default=None, metavar="DIR",
                      help="durable state root (snapshot + membership log "
                      "under DIR/<node-id>); a restarted process recovers "
                      "from it")
    peer.set_defaults(run=run_node)


def parse_address(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not port.isdigit():
        raise ValueError(f"--seed expects HOST:PORT, got {text!r}")
    return (host or "127.0.0.1", int(port))


def export_artifacts(outdir: Path, node_id: str, network: Network,
                     gauges=None) -> None:
    """Dump this process's metrics (with ``gauges``) and traces as
    ``<node_id>.metrics.prom`` and ``<node_id>.trace.json``, for
    :func:`merge_artifacts`."""
    outdir.mkdir(parents=True, exist_ok=True)
    labels = {"peer_id": node_id, "pid": os.getpid(),
              "transport": network.transport.kind}
    text = render_prometheus(network.metrics, gauges, const_labels=labels)
    (outdir / f"{node_id}.metrics.prom").write_text(text)
    if network.trace_collector is not None:
        (outdir / f"{node_id}.trace.json").write_text(
            network.trace_collector.export_json()
        )


def process_dumps(outdir: Path, suffix: str) -> List[Path]:
    """The per-process ``*<suffix>`` dumps under ``outdir``, sorted: a
    ``merged.*`` file is a merge's output, never one of its inputs."""
    return [path for path in sorted(Path(outdir).glob(f"*{suffix}"))
            if not path.name.startswith("merged.")]


def merge_artifacts(outdir: Path) -> None:
    """Merge a run directory's process dumps into ``merged.metrics.prom``
    and ``merged.traces.json``: each node exports only its local
    fragment of a distributed trace, so the fragments are stitched per
    trace id and every causal tree validated (across clocks when more
    than one process exported)."""
    dumps = process_dumps(outdir, ".metrics.prom")
    (outdir / "merged.metrics.prom").write_text(
        merge_expositions([p.read_text() for p in dumps])
    )
    traces = {path.name[: -len(".trace.json")]: json.loads(path.read_text())
              for path in process_dumps(outdir, ".trace.json")}
    stitched = stitch_trace_exports(list(traces.values()))
    validation = {
        trace_id: problems
        for trace_id, problems in (
            (trace_id, validate_trace_dicts(spans, cross_clock=len(traces) > 1))
            for trace_id, spans in sorted(stitched.items())
        )
        if problems
    }
    # strict JSON: Span.to_dict guarantees scalars, so no default=
    (outdir / "merged.traces.json").write_text(json.dumps({
        "schema": "repro.obs/trace-merge-v1",
        "nodes": traces,
        "stitched_traces": len(stitched),
        "validation": validation,
    }))


def run_node(args) -> int:
    """Entry point of the ``python -m repro peer`` subcommand."""
    node_id = args.node_id
    try:
        # everything that arrives on the command line is checked before
        # a socket is bound or a workload generated
        spec = ClusterSpec.from_json(args.spec)
        if spec.super_peers < 1:
            raise ValueError("a live node needs super-peers >= 1 (the ad-hoc "
                             "architecture runs in the sim only)")
        seed = parse_address(args.seed)
        if node_id not in spec.super_ids() + spec.all_peer_ids():
            raise ValueError(
                f"--node-id {node_id!r} is not a node of the spec "
                f"({', '.join(spec.super_ids() + spec.all_peer_ids())})"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = spec.peer_config()
    workload = build_workload(spec)
    role = "super" if node_id in spec.super_ids() else "peer"

    transport = AsyncioTransport(
        host=args.host, port=args.port, seed=seed, time_scale=spec.time_scale,
    )
    network = Network(seed=spec.seed, transport=transport)
    if network.tracer.enabled:
        # disambiguate span/trace ids across processes: the launcher
        # stitches every node's export into one trace per query, and
        # two processes' locally-minted ``s<n>`` ids would collide
        network.tracer.id_suffix = f"@{node_id}"

    # telemetry (repro.obs.telemetry): durable flight-recorder sink +
    # slow-query log, attached before any event can fire so a crash
    # always leaves its last moments in <node>.events.jsonl
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    event_sink = JsonlSink(outdir / f"{node_id}.events.jsonl")
    if network.flight_recorder is not None:
        network.flight_recorder.sink = event_sink

    def _dump_slow(entry, _counter=[0]):
        _counter[0] += 1
        (outdir / f"{node_id}.slow.{_counter[0]}.json").write_text(
            json.dumps(entry, indent=2)
        )

    SlowQueryLog(
        threshold=SLOW_QUERY_THRESHOLD,
        collector=network.trace_collector,
        on_slow=_dump_slow,
    ).install(network.metrics)

    # durable peer state: snapshot + membership log under the node's
    # own state directory; a restarted process finds it and recovers
    state_store = None
    recovered = None
    if args.statedir:
        state_store = PeerStateStore(
            FileStore(Path(args.statedir) / node_id), node_id
        )
        state_store.bind_metrics(network.metrics)
        if state_store.exists():
            recovered = state_store.recover()
            state_store.log_recover()

    if role == "super":
        node = SuperPeer(node_id, schemas=[workload.synthetic.schema], config=config)
        node.join(network)
    else:
        transport.start()
        # the Advertise pushed by join() needs a routable home: wait
        # until the seed's book broadcast names this peer's super-peer
        home = spec.home_for(node_id)
        transport.run_until(lambda: home in transport.book, timeout=2_000.0)
        if recovered is not None and recovered.graph is not None:
            # crash recovery: resume from the durable base and views,
            # re-deriving the active-schema from them
            base = PeerBase(recovered.graph, workload.synthetic.schema,
                            recovered.views)
        else:
            base = PeerBase(workload.bases[node_id], workload.synthetic.schema)
        node = HybridPeer(node_id, base, home_super_peer=home, config=config)
        if recovered is not None:
            node.rejoining = True  # join() advertises with the rejoin flag
        node.join(network)
        node.rejoining = False
    if state_store is not None:
        node.attach_durability(state_store)
    if recovered is not None:
        # what the previous incarnation knew of its SONs, neither
        # logged nor counted again
        node.sons.restore_from(recovered)
        # survivors may hold replay caches keyed by the previous
        # incarnation's channel ids: mint ids they cannot have seen
        node.channels.epoch = recovered.incarnations + 1
        network.metrics.count("recoveries")
        network.emit_event("recovery", peer=node_id, pid=os.getpid())
    elif state_store is not None:
        node.save_durable_snapshot()  # (a super-peer has no base to save)
    # a super-peer starts listening only now, its registry restored
    host, port = transport.start()

    stopping = []

    def _stop() -> None:
        stopping.append(True)
        transport.wake()  # leave run_until(stopping) now, not at a timer

    for signum in (signal.SIGTERM, signal.SIGINT):
        transport.loop.add_signal_handler(signum, _stop)

    # telemetry endpoints: /metrics /healthz /tracez on the node's own
    # event loop; the endpoint file makes the address discoverable to
    # any reader of the run directory (``top``, ``metrics --scrape``)
    probe = TelemetryProbe(network, peers=[node], node_id=node_id, role=role)
    labels = {"peer_id": node_id, "pid": os.getpid(), "transport": transport.kind}
    server = TelemetryServer(
        {
            "/metrics": lambda: (
                "text/plain; version=0.0.4",
                probe.metrics_text(const_labels=labels),
            ),
            "/healthz": lambda: (
                "application/json", json.dumps(probe.healthz(), default=str)
            ),
            "/tracez": lambda: (
                "application/json", json.dumps(probe.tracez(), default=str)
            ),
        },
        host=args.host,
        port=args.telemetry_port,
    )
    telemetry_host, telemetry_port = server.start(transport.loop)
    write_endpoint_file(
        outdir, node_id, telemetry_host, telemetry_port,
        pid=os.getpid(), role=role, peer_port=port,
    )

    print(f"READY {node_id} {host} {port}", flush=True)
    transport.run_until(lambda: bool(stopping), timeout=LIFETIME)

    # graceful stop: persist the latest base/views/active-schema so the
    # next incarnation recovers from it (crashes skip this, by nature)
    node.save_durable_snapshot()
    export_artifacts(outdir, node_id, network, peer_gauges([node]))
    server.close(transport.loop)
    event_sink.close()
    transport.close()
    print(f"STOPPED {node_id}", flush=True)
    sys.stdout.flush()
    return 0
