"""The four benchmark workloads and the deployments they run against.

Every workload is a closed loop with one client and one operation in
flight.  A run is a fixed number of identical *epochs*: each epoch
builds a fresh, default-constructed deployment (the timed set-up), makes
one untimed pass over the distinct query texts, and then times a fixed
sequence of operations.  An epoch always starts cold and runs the same
operations, so the per-query counts (messages, bytes) repeat exactly.

What ``--seed`` decides is the request stream: in which order the
workload's (coordinator, query text) pairs are issued.  The data set —
layout, instance data, update stream, cluster seed — is pinned by
``DATA_SEED``, as the data set of a database benchmark is: a MIXED layout
drawn afresh moves ``sim-fanout`` between 75 and 650 messages per query
and an update stream drawn afresh moves ``sim-updates``' p95 between 20
and 47 ms, so per-seed data would measure the draw, not the program.
Data diversity is the business of the tier-1 difftest walls.
"""

from __future__ import annotations

import os
import random
import resource
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.deploy import ClusterSpec, LiveCluster, build_sim_system, build_workload
from repro.livedata import LiveDataDriver, UpdateStream
from repro.rdf.graph import Graph
from repro.systems import HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import SyntheticSchema, generate_schema

#: seed of the pinned data set, layout included (and of the update stream)
DATA_SEED = 6
#: scratch directory for live clusters; inside the checkout, ignored by git
WORK_DIR = Path(__file__).resolve().parent / ".work"
#: share of the full operation counts that ``--smoke`` runs
SMOKE_SCALE = 0.05


@dataclass(frozen=True)
class Op:
    """One timed operation: a query, or one update revision applied to
    quiescence.  ``revision`` is the 0-based revision an update injects
    and, for a query, the number of revisions applied before it."""

    kind: str
    via: str = ""
    text: str = ""
    revision: int = 0


@dataclass
class Inputs:
    """Everything a workload generates from the seed."""

    seed: int
    synthetic: Optional[SyntheticSchema] = None
    peer_ids: List[str] = field(default_factory=list)
    bases: Dict[str, Graph] = field(default_factory=dict)
    texts: List[str] = field(default_factory=list)
    ops: List[Op] = field(default_factory=list)
    stream: Optional[UpdateStream] = None
    spec: Optional[ClusterSpec] = None
    #: revisions (1-based) at which sim-updates also asks a from-scratch twin
    checkpoints: Tuple[int, ...] = ()


def _chain_texts(synthetic: SyntheticSchema, lengths: Sequence[int]) -> List[str]:
    """Every distinct chain query of the given lengths, shortest first."""
    segments = len(synthetic.chain_properties)
    return [
        chain_query(synthetic, start, length)
        for length in lengths
        for start in range(segments - length + 1)
    ]


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, round(count * scale))


# ----------------------------------------------------------------------
# deployments
# ----------------------------------------------------------------------
class SimDeployment:
    """A one-super-peer ``HybridSystem`` on the sim transport."""

    def __init__(self, inputs: Inputs, graphs: Dict[str, Graph]):
        self.inputs = inputs
        self.system = HybridSystem(inputs.synthetic.schema, seed=inputs.seed)
        self.system.add_super_peer("SP")
        for peer_id in inputs.peer_ids:
            self.system.add_peer(peer_id, graphs[peer_id], "SP")
        self.system.run()  # settle the advertisement push
        self.client = self.system.add_client()
        self.driver = (
            LiveDataDriver(self.system, inputs.stream)
            if inputs.stream is not None
            else None
        )
        #: revision (1-based) -> {peer: (triples, views)}, filled by
        #: after_update: the base state every later query answers from
        self.snapshots: Dict[int, Dict[str, Tuple[tuple, tuple]]] = {}

    def execute(self, op: Op):
        if op.kind == "update":
            self.driver.inject(op.revision)
            self.system.run()
            if not self.driver.acked(op.revision + 1):
                raise RuntimeError(f"revision {op.revision + 1} was not acked")
            return None
        query_id = self.client.submit(op.via, op.text)
        self.system.run()
        result = self.client.result(query_id)
        if result is None:
            raise RuntimeError(f"query {query_id} produced no reply")
        return result

    def after_update(self, op: Op) -> None:
        """Harness work after an update operation (the caller stops its
        clocks around it): snapshot the peers' current bases and views,
        the oracle's reference for the queries up to the next update.
        A snapshot is a tuple of the base's own (immutable) triples, not
        a graph copy, so the harness adds next to nothing to the heap the
        program's garbage collector walks."""
        self.snapshots[op.revision + 1] = {
            peer_id: (
                tuple(self.system.peers[peer_id].base.graph.triples()),
                self.system.peers[peer_id].base.views,
            )
            for peer_id in self.inputs.peer_ids
        }

    def counters(self, detail: bool) -> Dict[str, float]:
        metrics = self.system.network.metrics
        out = {"messages": metrics.messages_total, "bytes": metrics.bytes_total}
        if detail:
            for name in (
                "cache_invalidations", "coalesced_queries",
                "discarded_bindings", "batches_sent",
            ):
                out[name] = getattr(metrics, name, None)
            by_kind = getattr(metrics, "messages_by_kind", {})
            bytes_by_kind = getattr(metrics, "bytes_by_kind", {})
            out["advertise_delta_messages"] = by_kind.get("AdvertiseDelta", 0)
            out["advertise_delta_bytes"] = bytes_by_kind.get("AdvertiseDelta", 0)
            stages = getattr(metrics, "stage_latency", None)
            out["obs_spans"] = (
                sum(h.count for h in stages.values()) if stages is not None else None
            )
            collector = getattr(self.system.network, "trace_collector", None)
            out["obs_retained_traces"] = (
                len(collector.trace_ids()) if collector is not None else None
            )
        return out

    def cpu_seconds(self) -> float:
        return 0.0  # everything runs in the measuring process

    def extra_rss_mb(self) -> float:
        return 0.0

    def close(self) -> None:
        pass


def _proc_cpu_seconds(pid: int) -> float:
    """On-CPU time of another process: ``schedstat`` counts nanoseconds
    where the kernel keeps it, ``stat`` counts clock ticks otherwise."""
    try:
        with open(f"/proc/{pid}/schedstat") as handle:
            return int(handle.read().split()[0]) / 1e9
    except (OSError, ValueError, IndexError):
        pass
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class LiveDeployment:
    """A ``LiveCluster``: one OS process per node over localhost TCP,
    driven by a client peer in this (the launcher) process."""

    def __init__(self, inputs: Inputs):
        WORK_DIR.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(prefix="live-", dir=WORK_DIR)
        self.cluster = LiveCluster(inputs.spec, Path(self._tmp.name) / "run")

    def start(self) -> None:
        try:
            self.cluster.start()
        except BaseException:
            self.close()
            raise

    def execute(self, op: Op):
        return self.cluster.query(op.via, op.text)

    def counters(self, detail: bool) -> Dict[str, float]:
        """Cluster-wide counters: every node's latest scrape plus the
        launcher's own network (each process meters what it sends)."""
        self.cluster.scrape()
        own = self.cluster.network.metrics
        out = {"messages": float(own.messages_total), "bytes": float(own.bytes_total)}
        if detail:
            out["cache_invalidations"] = float(own.cache_invalidations)
        for series in self.cluster.scraper.series.peers.values():
            sample = series.latest()
            if sample is None:
                continue
            out["messages"] += sample.counters["messages"]
            out["bytes"] += sample.counters["bytes"]
            if detail:
                out["cache_invalidations"] += sample.counters.get(
                    "cache_invalidations", 0.0
                )
        return out

    def _node_pids(self) -> List[int]:
        return [p.pid for p in self.cluster.processes.values() if p.poll() is None]

    def cpu_seconds(self) -> float:
        return sum(_proc_cpu_seconds(pid) for pid in self._node_pids())

    def extra_rss_mb(self) -> float:
        return sum(_proc_peak_rss_mb(pid) for pid in self._node_pids())

    def close(self) -> None:
        try:
            self.cluster.shutdown()
        finally:
            self._tmp.cleanup()
            try:
                WORK_DIR.rmdir()
            except OSError:
                pass  # another run still has a cluster directory there


def launcher_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One named workload: its shape, and how to generate and deploy it.

    Attributes:
        name: The name later issues cite.
        why: One line on what the workload stresses.
        peers, chain_length, noise_properties, distribution, statements,
            shared_pool: Topology and data shape (sim workloads).
        lengths: Chain-query lengths in the query mix; a length listed
            twice puts its texts into the rotation twice.
        stride: Pair ``i`` of an epoch's request multiset is (peer
            ``i``, text ``stride * i``), both modulo their counts; the
            seed then shuffles the pairs.  5 is coprime to the 21 texts
            of lengths 1-3, so every coordinator x text pair among the
            first lcm(21, peers) is distinct.
        queries: Query operations per epoch.
        revisions: Update revisions per epoch (``sim-updates``).
        epochs: Epochs in a run of ``BENCHMARK.json``'s ``run_seconds``
            on today's code.  Fixed, not "as many as fit": the number of
            replicas a run picks its fastest from must not depend on the
            speed being measured.
        setup_repeats: Deployments built (and timed) per epoch; the
            last one serves the epoch.  Sim set-up takes milliseconds,
            and live bring-up lands on the launcher's 0.1-0.4 s polling
            quanta, so several samples per epoch steady the median.
    """

    name: str
    why: str
    peers: int
    chain_length: int
    noise_properties: int = 0
    distribution: Distribution = Distribution.MIXED
    statements: int = 6
    shared_pool: int = 6
    lengths: Tuple[int, ...] = (1, 2, 3)
    stride: int = 1
    queries: int = 0
    revisions: int = 0
    epochs: int = 1
    setup_repeats: int = 15
    live: bool = False

    # -- generation ----------------------------------------------------
    def generate(self, seed: int, scale: float = 1.0) -> Inputs:
        """The run's inputs: the pinned data set (and update stream), and
        the request stream drawn from ``seed``."""
        if self.live:
            # the same workload LiveCluster and every node process
            # rebuild from the spec; seed 1 mod 3 lays it out HORIZONTAL
            spec = ClusterSpec(
                seed=3 * DATA_SEED + 1, peers=self.peers, super_peers=1,
                chain_length=self.chain_length,
                statements_per_segment=self.statements,
            )
            built = build_workload(spec)
            synthetic, peer_ids = built.synthetic, spec.peer_ids()
            bases = {p: built.bases[p] for p in peer_ids}
        else:
            spec = None
            synthetic = generate_schema(
                chain_length=self.chain_length, noise_properties=self.noise_properties
            )
            peer_ids = [f"P{i}" for i in range(1, self.peers + 1)]
            bases = generate_bases(
                synthetic, peer_ids, self.distribution,
                statements_per_segment=self.statements,
                shared_pool=self.shared_pool, seed=DATA_SEED,
            ).bases
        texts = _chain_texts(synthetic, self.lengths)
        inputs = Inputs(seed, synthetic, peer_ids, bases, texts, spec=spec)
        revisions = _scaled(self.revisions, scale, 2) if self.revisions else 0
        per_revision = self.queries // self.revisions if self.revisions else 0
        count = revisions * per_revision or _scaled(self.queries, scale, len(texts))
        pairs = [
            (peer_ids[i % len(peer_ids)], texts[(self.stride * i) % len(texts)])
            for i in range(count)
        ]
        rng = random.Random(seed)
        if not revisions:
            rng.shuffle(pairs)
            inputs.ops = [Op("query", via, text) for via, text in pairs]
            return inputs
        inputs.stream = UpdateStream(
            synthetic.schema, bases, seed=DATA_SEED, revisions=revisions, rate=0.1
        )
        inputs.checkpoints = tuple(
            sorted({r for r in range(5, revisions + 1, 5)} | {revisions})
        )
        for revision in range(revisions):
            # the seed orders the queries inside a revision; which query
            # meets which base state is part of the pinned workload (a
            # three-hop query costs 20 or 45 ms depending on the state)
            block = pairs[revision * per_revision:(revision + 1) * per_revision]
            rng.shuffle(block)
            inputs.ops.append(Op("update", revision=revision))
            inputs.ops.extend(Op("query", via, text, revision + 1) for via, text in block)
        return inputs

    # -- deployment ----------------------------------------------------
    def prepare(self, inputs: Inputs):
        """Untimed part of a set-up: what the deployment is built from."""
        if self.live:
            return LiveDeployment(inputs)
        # fresh copies: a deployment owns (and sim-updates mutates) its graphs
        return {peer_id: graph.copy() for peer_id, graph in inputs.bases.items()}

    def deploy(self, inputs: Inputs, prepared):
        """The timed part of a set-up; returns the running deployment."""
        if self.live:
            prepared.start()
            return prepared
        return SimDeployment(inputs, prepared)

    def sim_twin(self, inputs: Inputs):
        """The in-sim twin of the live cluster (oracle and codec probe)."""
        return build_sim_system(inputs.spec)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sim-fanout",
            "per-message cost: 32 peers, ~105 messages and ~35 rows per query, "
            "every coordinator x text pair new, so channels, dispatch and "
            "plan-cache misses do the work",
            peers=32, chain_length=8, noise_properties=1,
            statements=6, shared_pool=6, stride=5, queries=210,
            epochs=6,
        ),
        Workload(
            "sim-join",
            "per-row cost: 4 peers, ~25 messages but ~500 rows per query, so "
            "scan, join/union kernels and finalize are the wall and messaging "
            "is bypassed",
            peers=4, chain_length=4, distribution=Distribution.HORIZONTAL,
            # three-hop texts rotate twice: with two-hop queries in the
            # majority the median would sit on the few of them that a
            # gen-2 GC pass lands on, and jump when that number changes
            statements=150, shared_pool=40, lengths=(2, 3, 3), queries=42,
            epochs=5,
        ),
        Workload(
            "live-tcp",
            "the only workload crossing transport and deploy: 1 super-peer + 2 "
            "peers as OS processes over localhost TCP; the sim workloads "
            "bypass the codec, framing and asyncio wait",
            peers=2, chain_length=4, statements=60, queries=36,
            epochs=3, setup_repeats=2, live=True,
        ),
        Workload(
            "sim-updates",
            "writes beside reads: 16 peers, one update revision then 30 "
            "queries, so cache invalidation and active-schema maintenance "
            "are paid next to the read path",
            peers=16, chain_length=8, noise_properties=1,
            # 30 queries per revision: with 15, only ~12 of 300 queries
            # pay a post-update recompile and p95 falls off that cliff
            statements=12, shared_pool=6, stride=5, queries=300, revisions=10,
            epochs=4,
        ),
    )
}
