"""Deterministic cluster workloads shared by every process of a run.

A live deployment has no shared memory: the launcher and each peer
process must agree on the synthetic schema, the peer bases and the
query texts from nothing but a seed and the topology numbers.  This
module is that agreement — the same :class:`ClusterSpec` (serialised
into child-process command lines) rebuilds bit-identical workloads
everywhere, and :func:`build_sim_system` deploys the identical workload
in-sim so differential runs compare like with like.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from ..config import DEFAULT_CONFIG, PeerConfig
from ..rdf.graph import Graph
from ..resilience import RESILIENCE_OFF, ResilienceConfig
from ..workloads.data_gen import Distribution, generate_bases
from ..workloads.query_gen import random_queries
from ..workloads.schema_gen import SyntheticSchema, generate_schema

#: Distributions cycled over dataset seeds (mirrors the difftest
#: harness, so live runs cover the same layout spectrum).
DISTRIBUTIONS = (
    Distribution.VERTICAL,
    Distribution.HORIZONTAL,
    Distribution.MIXED,
)


@dataclass(frozen=True)
class ClusterSpec:
    """Everything needed to rebuild one cluster's workload and topology.

    Attributes:
        seed: Dataset/network seed.
        peers: Simple-peer count (``P1`` ... ``Pn``).
        super_peers: Super-peer count (``SP1`` ... ``SPk``); peers
            cluster round-robin.
        chain_length: Synthetic schema chain length.
        queries: Distinct query texts to generate.
        statements_per_segment: Base size knob.
        resilient: Run with the resilience layer on (retries,
            quarantine, partial results) — required for kill runs.
        time_scale: Real seconds per virtual-time unit (live only).
        joiners: Extra peers (``P{peers+1}`` ...) that are *not* started
            with the cluster but hold pre-generated bases, so a mid-run
            ``--join`` spawns them with data every process agrees on.
        livedata: Enable the live data plane on every node: peers serve
            :class:`~repro.livedata.updates.UpdateBatch` streams (they
            always do) *and* opt into top-k cancel with paced chunked
            result streaming, so ``LIMIT`` queries can discard channels
            mid-stream.
    """

    seed: int
    peers: int = 3
    super_peers: int = 1
    chain_length: int = 4
    queries: int = 4
    statements_per_segment: int = 15
    resilient: bool = False
    time_scale: float = 0.02
    joiners: int = 0
    livedata: bool = False

    def peer_ids(self) -> List[str]:
        return [f"P{i}" for i in range(1, self.peers + 1)]

    def joiner_ids(self) -> List[str]:
        return [f"P{i}" for i in range(self.peers + 1, self.peers + self.joiners + 1)]

    def all_peer_ids(self) -> List[str]:
        """Initial members plus late joiners — the base-generation
        population (with ``joiners=0`` this is exactly ``peer_ids()``,
        keeping seeded workloads bit-identical to pre-joiner runs)."""
        return self.peer_ids() + self.joiner_ids()

    def super_ids(self) -> List[str]:
        return [f"SP{i}" for i in range(1, self.super_peers + 1)]

    def home_for(self, peer_id: str) -> str:
        index = int(peer_id[1:]) - 1
        return f"SP{(index % self.super_peers) + 1}"

    def peer_config(self) -> PeerConfig:
        """The behaviour every node of this cluster runs — the one
        derivation node processes, launcher clients and the in-sim twin
        all share, so they cannot drift apart."""
        config = DEFAULT_CONFIG
        if self.resilient:
            config = replace(config, resilience=ResilienceConfig.default(self.seed))
        if self.livedata:
            # LIMIT queries terminate early once k answers are stable,
            # discarding still-streaming channels the ubQL way; paced
            # chunked streaming gives the discard something to stop
            config = replace(config, topk_cancel=True, stream_chunk_rows=4)
        return config

    def to_args(self) -> List[str]:
        """The CLI fragment a child process rebuilds the spec from."""
        args = [
            "--workload-seed", str(self.seed),
            "--peers", str(self.peers),
            "--super-peers", str(self.super_peers),
            "--chain-length", str(self.chain_length),
            "--queries", str(self.queries),
            "--statements", str(self.statements_per_segment),
            "--time-scale", str(self.time_scale),
        ]
        if self.joiners:
            args.extend(["--joiners", str(self.joiners)])
        if self.resilient:
            args.append("--resilient")
        if self.livedata:
            args.append("--livedata")
        return args


@dataclass
class ClusterWorkload:
    """The materialised workload of one :class:`ClusterSpec`."""

    spec: ClusterSpec
    synthetic: SyntheticSchema
    bases: Dict[str, Graph]
    queries: List[str]
    distribution: Distribution


def build_workload(spec: ClusterSpec) -> ClusterWorkload:
    """Rebuild the cluster's workload deterministically from its spec."""
    synthetic = generate_schema(
        chain_length=spec.chain_length,
        refinement_fraction=0.0,
        noise_properties=1,
        seed=spec.seed,
    )
    distribution = DISTRIBUTIONS[spec.seed % len(DISTRIBUTIONS)]
    generated = generate_bases(
        synthetic,
        spec.all_peer_ids(),
        distribution,
        statements_per_segment=spec.statements_per_segment,
        shared_pool=6,
        seed=spec.seed,
    )
    texts = random_queries(
        synthetic,
        spec.queries,
        max_length=min(3, spec.chain_length),
        seed=spec.seed,
    )
    return ClusterWorkload(spec, synthetic, generated.bases, texts, distribution)


def build_sim_system(spec: ClusterSpec, workload: ClusterWorkload = None):
    """The in-sim twin of a live cluster: same workload, same topology,
    same :meth:`ClusterSpec.peer_config`, on
    :class:`~repro.transport.SimTransport`.  (Heartbeat emitters and
    per-super-peer failure detectors are the sim-only difference: live
    failure detection rides on the transport's dial-give-up bounces.)"""
    from ..systems import HybridSystem

    workload = workload or build_workload(spec)
    config = spec.peer_config()
    system = HybridSystem(
        workload.synthetic.schema,
        seed=spec.seed,
        config=replace(config, resilience=RESILIENCE_OFF),
    )
    for super_id in spec.super_ids():
        system.add_super_peer(super_id)
    for peer_id in spec.peer_ids():
        system.add_peer(peer_id, workload.bases[peer_id], spec.home_for(peer_id))
    system.run()  # settle the advertisement push
    if spec.resilient:
        # only now: the failure detectors count from a settled cluster
        system.enable_resilience(config.resilience)
    return system
