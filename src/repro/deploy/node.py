"""One OS process of a live deployment: ``python -m repro peer``.

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

import os
import signal
import sys
from pathlib import Path
from typing import Tuple

from ..durability import FileStore, PeerStateStore
from ..net.simulator import Network
from ..obs import peer_gauges, render_prometheus
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
#: if the launcher never reaps it (a crashed launcher must not leave
#: orphan processes behind, e.g. in CI).
DEFAULT_LIFETIME = 30_000.0


def add_spec_arguments(parser) -> None:
    """The :class:`ClusterSpec` fragment of a node/launch command line."""
    parser.add_argument("--workload-seed", type=int, default=0,
                        help="dataset/network seed (default 0)")
    parser.add_argument("--peers", type=int, default=3,
                        help="simple-peer count (default 3)")
    parser.add_argument("--super-peers", type=int, default=1,
                        help="super-peer count (default 1)")
    parser.add_argument("--chain-length", type=int, default=4,
                        help="synthetic schema chain length (default 4)")
    parser.add_argument("--queries", type=int, default=4,
                        help="distinct query texts (default 4)")
    parser.add_argument("--statements", type=int, default=15,
                        help="statements per schema segment (default 15)")
    parser.add_argument("--joiners", type=int, default=0,
                        help="extra peers with pre-generated bases that "
                             "join mid-run (default 0)")
    parser.add_argument("--resilient", action="store_true",
                        help="enable the resilience layer (required for kill runs)")
    parser.add_argument("--livedata", action="store_true",
                        help="enable the live data plane: top-k cancel "
                             "with paced chunked result streaming")
    parser.add_argument("--time-scale", type=float, default=0.02,
                        help="real seconds per virtual-time unit (default 0.02)")


def spec_from_args(args) -> ClusterSpec:
    return ClusterSpec(
        seed=args.workload_seed,
        peers=args.peers,
        super_peers=args.super_peers,
        chain_length=args.chain_length,
        queries=args.queries,
        statements_per_segment=args.statements,
        resilient=args.resilient,
        time_scale=args.time_scale,
        joiners=args.joiners,
        livedata=args.livedata,
    )


def parse_address(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


def export_artifacts(outdir: Path, node_id: str, network: Network,
                     transport, node=None) -> None:
    """Dump this process's metrics and traces for the launcher to merge."""
    outdir.mkdir(parents=True, exist_ok=True)
    labels = {"peer_id": node_id, "pid": os.getpid(), "transport": transport.kind}
    gauges = peer_gauges([node]) if node is not None else None
    text = render_prometheus(network.metrics, gauges, const_labels=labels)
    (outdir / f"{node_id}.metrics.prom").write_text(text)
    if network.trace_collector is not None:
        (outdir / f"{node_id}.trace.json").write_text(
            network.trace_collector.export_json()
        )


def _trip_quarantine(quarantine, suspects) -> None:
    """Re-open the breaker for every recovered quarantine verdict."""
    for suspect in sorted(suspects):
        while not quarantine.is_quarantined(suspect):
            quarantine.record_failure(suspect)


def run_node(args) -> int:
    """Entry point of the ``python -m repro peer`` subcommand."""
    spec = spec_from_args(args)
    config = spec.peer_config()
    workload = build_workload(spec)
    node_id = args.node_id
    role = "super" if node_id in spec.super_ids() else "peer"

    transport = AsyncioTransport(
        host=args.host, port=args.port,
        seed=parse_address(args.seed),
        time_scale=spec.time_scale,
    )
    network = Network(seed=spec.seed, transport=transport)
    if network.tracer.enabled:
        # disambiguate span/trace ids across processes: the launcher
        # stitches every node's export into one trace per query, and
        # two processes' locally-minted ``s<n>`` ids would collide
        network.tracer.id_suffix = f"@{args.node_id}"

    # telemetry (repro.obs.telemetry): durable flight-recorder sink +
    # slow-query log, attached before any event can fire so a crash
    # always leaves its last moments in <node>.events.jsonl
    outdir = Path(args.outdir)
    telemetry_on = not args.no_telemetry
    event_sink = None
    slow_log = None
    if telemetry_on:
        outdir.mkdir(parents=True, exist_ok=True)
        event_sink = JsonlSink(outdir / f"{node_id}.events.jsonl")
        if network.flight_recorder is not None:
            network.flight_recorder.sink = event_sink

        def _dump_slow(entry, _counter=[0]):
            _counter[0] += 1
            import json as _json
            (outdir / f"{node_id}.slow.{_counter[0]}.json").write_text(
                _json.dumps(entry, indent=2)
            )

        slow_log = SlowQueryLog(
            threshold=args.slow_query_threshold,
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
        if state_store is not None:
            node.attach_durability(state_store)
        if recovered is not None:
            # rebuild the SON registries (no metrics, no re-logging),
            # then the quarantine verdicts on top
            for advertisement in recovered.advertisements.values():
                node.register_advertisement(advertisement, record=False)
            _trip_quarantine(node.quarantine, recovered.quarantined)
            node.channels.epoch = recovered.incarnations + 1
            network.metrics.count("recoveries")
            network.emit_event("recovery", peer=node_id, pid=os.getpid())
        host, port = transport.start()
    else:
        host, port = transport.start()
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
            node.known_advertisements = {
                remote: advertisement
                for remote, advertisement in recovered.advertisements.items()
                if remote != node_id
            }
            _trip_quarantine(node.quarantine, recovered.quarantined)
            # survivors may hold replay caches keyed by the previous
            # incarnation's channel ids: mint ids they cannot have seen
            node.channels.epoch = recovered.incarnations + 1
            network.metrics.count("recoveries")
            network.emit_event("recovery", peer=node_id, pid=os.getpid())
        elif state_store is not None:
            node.save_durable_snapshot()

    stopping = []

    def _stop() -> None:
        stopping.append(True)
        transport.wake()  # leave run_until(stopping) now, not at a timer

    for signum in (signal.SIGTERM, signal.SIGINT):
        transport.loop.add_signal_handler(signum, _stop)

    # telemetry endpoints: /metrics /healthz /tracez on the node's own
    # event loop; the endpoint file makes the address discoverable even
    # after the launcher dies (nodes outlive their parent)
    server = None
    if telemetry_on:
        probe = TelemetryProbe(network, peers=[node], node_id=node_id, role=role)
        labels = {"peer_id": node_id, "pid": os.getpid(), "transport": transport.kind}
        import json as _json
        server = TelemetryServer(
            {
                "/metrics": lambda: (
                    "text/plain; version=0.0.4",
                    probe.metrics_text(const_labels=labels),
                ),
                "/healthz": lambda: (
                    "application/json", _json.dumps(probe.healthz(), default=str)
                ),
                "/tracez": lambda: (
                    "application/json", _json.dumps(probe.tracez(), default=str)
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
    transport.run_until(lambda: bool(stopping), timeout=args.lifetime)

    # graceful stop: persist the latest base/views/active-schema so the
    # next incarnation recovers from it (crashes skip this, by nature)
    node.save_durable_snapshot()
    export_artifacts(outdir, node_id, network, transport, node)
    if server is not None:
        server.close(transport.loop)
    if event_sink is not None:
        event_sink.close()
    transport.close()
    print(f"STOPPED {node_id}", flush=True)
    sys.stdout.flush()
    return 0
