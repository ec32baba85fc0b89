"""Seeded update streams and their injection drivers.

An :class:`UpdateStream` pre-generates, deterministically from a seed,
a sequence of *revisions*: per-peer :class:`~repro.livedata.updates.
UpdateBatch` payloads mixing triple inserts, triple deletes and RVL
view redefinitions at configurable per-peer rates.  Generation runs
against shadow copies of the bases, so delete targets always exist and
view redefinitions stay *covering* (a virtual base never under-
advertises its populated properties — routing completeness is
preserved, which is what lets the difftest wall compare live answers
against a centralized oracle).

:class:`LiveDataDriver` injects a stream into a running deployment
through an ordinary network peer — the same
``UpdateBatch`` wire payloads whether the transport is simulated or
live, which is the point: updates are protocol traffic, not test-
harness back doors.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence

from ..peers.base import Peer
from ..rdf.graph import Graph
from ..rdf.schema import Schema
from ..rdf.terms import URI
from ..rdf.triple import Triple
from ..rdf.vocabulary import TYPE
from .updates import (
    DeleteTriple,
    InsertTriple,
    RedefineViews,
    RefreshStanding,
    UpdateAck,
    UpdateBatch,
    UpdateRecord,
)


def _local_name(uri: URI, namespace: str) -> str:
    return uri.value[len(namespace):] if uri.value.startswith(namespace) else uri.value


def covering_view_text(
    schema: Schema, properties: Sequence[URI], prefix: str = "s"
) -> str:
    """An RVL view whose head populates exactly ``properties``.

    Head atom ``s:p(Xi, Yi)`` with a matching FROM path per property —
    the canonical covering view of a materialised fragment.
    """
    namespace = schema.namespace.uri
    atoms, paths = [], []
    for index, prop in enumerate(properties):
        name = _local_name(prop, namespace)
        atoms.append(f"{prefix}:{name}(X{index}, Y{index})")
        paths.append(f"{{X{index}}} {prefix}:{name} {{Y{index}}}")
    return (
        f"CREATE VIEW {', '.join(atoms)} FROM {', '.join(paths)} "
        f"USING NAMESPACE {prefix} = &{namespace}&"
    )


class UpdateStream:
    """A deterministic, seeded stream of live-data revisions.

    Args:
        schema: The community schema updates speak.
        bases: Peer id → base graph at stream start (copied; the
            stream never mutates the real bases).
        seed: Generation seed — same seed, same stream, always.
        revisions: Number of quiescent revisions to generate.
        rate: Default per-revision update rate as a fraction of the
            peer's base size (``max(1, round(rate * |base|))`` records).
        per_peer_rates: Optional per-peer overrides of ``rate``.
        view_probability: Chance per (peer, revision) that the batch
            carries a view redefinition alongside the triple churn.
        delete_fraction: Fraction of triple records that are deletes.
    """

    def __init__(
        self,
        schema: Schema,
        bases: Dict[str, Graph],
        seed: int,
        revisions: int = 4,
        rate: float = 0.08,
        per_peer_rates: Optional[Dict[str, float]] = None,
        view_probability: float = 0.15,
        delete_fraction: float = 0.35,
    ):
        self.schema = schema
        self.seed = seed
        self.revision_count = revisions
        rng = random.Random(seed)
        properties = sorted(schema.properties, key=lambda u: u.value)
        classes = sorted(schema.classes, key=lambda u: u.value)
        shadows = {peer: bases[peer].copy() for peer in sorted(bases)}
        #: peer → properties its current view covers (None = materialised)
        covered: Dict[str, Optional[List[URI]]] = {peer: None for peer in shadows}
        fresh = 0
        #: revision index → list of per-peer batches
        self.revisions: List[List[UpdateBatch]] = []
        rates = per_peer_rates or {}
        for revision in range(1, revisions + 1):
            batches: List[UpdateBatch] = []
            for peer in sorted(shadows):
                shadow = shadows[peer]
                records: List[UpdateRecord] = []
                peer_rate = rates.get(peer, rate)
                count = max(1, round(peer_rate * len(shadow)))
                for _ in range(count):
                    pick = rng.random()
                    if pick < delete_fraction and len(shadow):
                        victim = rng.choice(
                            sorted(shadow.triples(None, None, None), key=Triple.n3)
                        )
                        records.append(DeleteTriple(victim))
                        shadow.remove_triple(victim)
                    elif pick < delete_fraction + 0.1:
                        cls = rng.choice(classes)
                        triple = Triple(URI(f"urn:live:{seed}:m{fresh}"), TYPE, cls)
                        fresh += 1
                        if shadow.add_triple(triple):
                            records.append(InsertTriple(triple))
                    else:
                        pool = covered[peer] if covered[peer] else properties
                        prop = rng.choice(pool)
                        triple = Triple(
                            URI(f"urn:live:{seed}:s{fresh}"),
                            prop,
                            URI(f"urn:live:{seed}:o{fresh}"),
                        )
                        fresh += 1
                        if shadow.add_triple(triple):
                            records.append(InsertTriple(triple))
                if rng.random() < view_probability:
                    if covered[peer] is not None and rng.random() < 0.4:
                        # revert to the materialised scenario
                        records.append(RedefineViews(()))
                        covered[peer] = None
                    else:
                        populated = [
                            p
                            for p in properties
                            if next(shadow.triples(None, p, None), None) is not None
                        ]
                        extras = [p for p in properties if p not in populated]
                        if extras and rng.random() < 0.5:
                            populated.append(rng.choice(extras))
                        if populated:
                            records.append(
                                RedefineViews(
                                    (covering_view_text(self.schema, populated),)
                                )
                            )
                            covered[peer] = populated
                if records:
                    batches.append(UpdateBatch(peer, revision, tuple(records)))
            self.revisions.append(batches)
        #: the end-state shadows (what the bases look like after every
        #: revision applied) — handy for oracle construction
        self.final_shadows = shadows

    def all_batches(self) -> List[UpdateBatch]:
        return [batch for revision in self.revisions for batch in revision]

    def total_records(self) -> int:
        return sum(len(b.updates) for b in self.all_batches())


class UpdateInjector(Peer):
    """The network peer an update driver speaks through."""

    def __init__(self, peer_id: str = "live-injector"):
        super().__init__(peer_id)
        self.acks: List[UpdateAck] = []

    def handle_UpdateAck(self, message) -> None:
        self.acks.append(message.payload)


class LiveDataDriver:
    """Injects an :class:`UpdateStream` into a running deployment.

    Works against anything exposing ``network`` (an in-sim
    :class:`~repro.systems.hybrid.HybridSystem` /
    :class:`~repro.systems.adhoc.AdhocSystem`, or a live
    :class:`~repro.deploy.launcher.LiveCluster`): the driver joins an
    injector peer and ships each revision's batches as ordinary
    messages.
    """

    def __init__(self, system, stream: UpdateStream):
        self.system = system
        self.stream = stream
        self.injector = UpdateInjector()
        self.injector.join(system.network)
        self.injected = 0

    def inject(self, revision_index: int) -> int:
        """Send one revision's batches; returns the batch count."""
        batches = self.stream.revisions[revision_index]
        for batch in batches:
            self.injector.send(batch.target, batch)
        self.injected += len(batches)
        return len(batches)

    def acked(self, revision: int) -> bool:
        """Whether every batch of ``revision`` (1-based) was applied."""
        expected = {
            b.target for b in self.stream.revisions[revision - 1]
        }
        seen = {a.target for a in self.injector.acks if a.revision == revision}
        return expected <= seen

    def refresh_standing(self, peer_ids: Iterable[str], revision: int) -> None:
        """Mark the quiescent point: tell coordinators holding standing
        queries to re-evaluate and push deltas for ``revision``."""
        for peer_id in peer_ids:
            self.injector.send(peer_id, RefreshStanding(revision))
