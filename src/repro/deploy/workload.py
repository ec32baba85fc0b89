"""Deterministic cluster workloads shared by every process of a run.

A live deployment has no shared memory: the launcher and each peer
process must agree on the synthetic schema, the peer bases and the
query texts from nothing but a seed and the topology numbers.  This
module is that agreement — the same :class:`ClusterSpec` (handed to
each child process as one JSON value, :meth:`ClusterSpec.to_json` /
:meth:`ClusterSpec.from_json`) rebuilds bit-identical workloads
everywhere, and :func:`build_sim_system` deploys the identical workload
in-sim so differential runs compare like with like.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, List

from ..config import DEFAULT_CONFIG, PeerConfig, topk_streaming
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


#: JSON value types accepted per annotated field type (a ``bool`` is
#: not an ``int`` here, whatever ``isinstance`` says)
_JSON_TYPES = {"int": (int,), "bool": (bool,), "float": (int, float)}


@dataclass(frozen=True)
class ClusterSpec:
    """Everything needed to rebuild one cluster's workload and topology.

    Attributes:
        seed: Dataset/network seed.
        peers: Simple-peer count (``P1`` ... ``Pn``).
        super_peers: Super-peer count (``SP1`` ... ``SPk``); peers
            cluster round-robin.  0 is the ad-hoc architecture, every
            peer the neighbour of every other (in-sim only).
        chain_length: Synthetic schema chain length.
        queries: Distinct query texts to generate.
        statements_per_segment: Base size knob.
        resilient: Run with the resilience layer on (retries,
            quarantine, partial results) — required for kill runs.
        time_scale: Real seconds per virtual-time unit (live only).
        joiners: Extra peers (``P{peers+1}`` ...) that are *not* started
            with the cluster but hold pre-generated bases, so a peer
            joining mid-run brings data every process agrees on.
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

    def __post_init__(self) -> None:
        # the counts come from ``run`` flags and ``peer --spec``
        if self.peers < 1 or self.super_peers < 0 or self.joiners < 0:
            raise ValueError(
                f"a cluster needs peers >= 1, super-peers >= 0 and joiners >= 0 "
                f"(got {self.peers}, {self.super_peers}, {self.joiners})"
            )
        if self.joiners and not self.super_peers:
            raise ValueError("an ad-hoc cluster (super-peers 0) has no "
                             "super-peer for joiners to join through")

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
            config = topk_streaming(config)
        return config

    def to_json(self) -> str:
        """The spec as the one value a child process is started with
        (``python -m repro peer --spec``)."""
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        """Inverse of :meth:`to_json`.  The text arrives on a command
        line, so anything but an object of exactly-typed known fields
        is a :class:`ValueError` naming what is wrong."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"spec is not JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ValueError("spec must be a JSON object")
        known = {field.name: _JSON_TYPES[field.type] for field in fields(cls)}
        for name, value in data.items():
            if name not in known:
                raise ValueError(f"spec has no field {name!r}")
            if type(value) not in known[name]:
                raise ValueError(f"spec field {name!r} cannot be {value!r}")
        if "seed" not in data:
            raise ValueError("spec needs a 'seed'")
        return cls(**data)


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
    failure detection rides on the transport's dial-give-up bounces.)
    With ``super_peers=0`` it is an ad-hoc deployment over a full
    neighbour mesh, its neighbourhoods discovered."""
    from ..systems import AdhocSystem, HybridSystem

    workload = workload or build_workload(spec)
    config = spec.peer_config()
    architecture = HybridSystem if spec.super_peers else AdhocSystem
    system = architecture(
        workload.synthetic.schema,
        seed=spec.seed,
        config=replace(config, resilience=RESILIENCE_OFF),
    )
    peers = spec.peer_ids()
    if spec.super_peers:
        for super_id in spec.super_ids():
            system.add_super_peer(super_id)
        for peer_id in peers:
            system.add_peer(peer_id, workload.bases[peer_id], spec.home_for(peer_id))
        system.run()  # settle the advertisement push
    else:
        for peer_id in peers:
            system.add_peer(peer_id, workload.bases[peer_id],
                            [p for p in peers if p != peer_id])
        system.discover_all()
    if spec.resilient:
        # only now: the failure detectors count from a settled cluster
        system.enable_resilience(config.resilience)
    return system
