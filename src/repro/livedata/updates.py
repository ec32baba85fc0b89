"""Live-data update records and their wire payloads.

SQPeer's advertisements are only meaningful while they track the data:
"each peer base can join and leave the network at will" (Section 1) —
and, between joining and leaving, *change*.  This module defines the
update vocabulary a live data plane speaks:

* **update records** — insert/delete one asserted triple, or redefine
  the RVL views of a virtual base (:class:`InsertTriple`,
  :class:`DeleteTriple`, :class:`RedefineViews`);
* **:class:`UpdateBatch`** — a peer-addressed batch of records, the
  unit of injection both in-sim and over the live transport;
* **:class:`AdvertiseDelta`** — the *incremental* advertisement: only
  the schema fragments that flipped (paths/classes added or removed)
  travel, instead of the full active-schema — the economy Section 2.2
  claims over full data indices, now extended to refreshes;
* **continuous-query payloads** — subscribe/push/cancel for standing
  queries whose answers follow the data (:class:`ContinuousSubscribe`,
  :class:`ContinuousUpdate`, :class:`ContinuousCancel`,
  :class:`RefreshStanding`).

Every payload carries ``size_bytes`` so the simulator charges realistic
bandwidth, and every one is registered with the wire codec so live
deployments speak the identical protocol.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

from ..errors import SchemaError
from ..execution.encoded import EncodedTable
from ..rdf.terms import URI
from ..rdf.triple import Triple
from ..rql.pattern import SchemaPath
from ..rvl.active_schema import ActiveSchema

#: flat per-term estimate used when sizing triples on the wire
_TRIPLE_BYTES = 24


def _triple_bytes(triple: Triple) -> int:
    return _TRIPLE_BYTES + sum(len(str(t)) for t in triple)


@dataclass(frozen=True)
class InsertTriple:
    """Assert one statement in the target peer's base."""

    triple: Triple

    def size_bytes(self) -> int:
        return _triple_bytes(self.triple)


@dataclass(frozen=True)
class DeleteTriple:
    """Retract one statement from the target peer's base."""

    triple: Triple

    def size_bytes(self) -> int:
        return _triple_bytes(self.triple)


@dataclass(frozen=True)
class RedefineViews:
    """Replace the target peer's RVL view set.

    Views travel as RVL source text (the canonical exchange syntax);
    the receiving peer re-parses them, so the record round-trips the
    wire without a structured view codec.  An empty tuple reverts the
    base to the materialised scenario (advertise what is populated).
    """

    texts: Tuple[str, ...]

    def size_bytes(self) -> int:
        return 16 + sum(len(t) + 2 for t in self.texts)


#: the union of record kinds an :class:`UpdateBatch` may carry
UpdateRecord = Union[InsertTriple, DeleteTriple, RedefineViews]


@dataclass(frozen=True)
class UpdateBatch:
    """Injector → peer: apply these updates to your base.

    Attributes:
        target: The peer whose base changes.
        revision: Monotone revision stamp of the stream; quiescent
            points are identified by it (continuous queries re-evaluate
            per revision).
        updates: The records, applied in order.
    """

    target: str
    revision: int
    updates: Tuple[UpdateRecord, ...]

    def size_bytes(self) -> int:
        return 48 + sum(u.size_bytes() for u in self.updates)


@dataclass(frozen=True)
class UpdateAck:
    """Peer → injector: batch ``revision`` applied (``applied`` counts
    the records that actually changed the base)."""

    target: str
    revision: int
    applied: int

    def size_bytes(self) -> int:
        return 48 + len(self.target)


@dataclass(frozen=True)
class AdvertiseDelta:
    """Peer → advertisement holder: my active-schema changed *by this
    much*.

    The holder reconstructs the new full advertisement from the one it
    already has — only the flipped fragments travel.  ``stats``
    piggybacks the refreshed per-property cardinalities exactly like a
    full :class:`~repro.peers.protocol.Advertise` does.
    """

    schema_uri: str
    peer_id: str
    added_paths: Tuple[SchemaPath, ...] = ()
    removed_paths: Tuple[SchemaPath, ...] = ()
    added_classes: Tuple[URI, ...] = ()
    removed_classes: Tuple[URI, ...] = ()
    stats: Optional[object] = None

    def is_empty(self) -> bool:
        return not (
            self.added_paths
            or self.removed_paths
            or self.added_classes
            or self.removed_classes
        )

    def size_bytes(self) -> int:
        path_bytes = sum(
            len(p.domain.value) + len(p.property.value) + len(p.range.value) + 6
            for p in self.added_paths + self.removed_paths
        )
        class_bytes = sum(
            len(c.value) + 2 for c in self.added_classes + self.removed_classes
        )
        stat_bytes = self.stats.size_bytes() if self.stats is not None else 0
        return 24 + len(self.schema_uri) + len(self.peer_id) + path_bytes + class_bytes + stat_bytes


def advertisement_delta(
    old: ActiveSchema, new: ActiveSchema, stats=None
) -> AdvertiseDelta:
    """The delta that turns advertisement ``old`` into ``new``.

    Classes are diffed over the *full* class sets (asserted plus
    path-implied), so :func:`apply_advertisement_delta` reproduces
    ``new`` exactly — digests agree with a from-scratch re-derivation.
    """
    if old.schema_uri != new.schema_uri:
        raise SchemaError(
            f"cannot diff advertisements of {old.schema_uri} and {new.schema_uri}"
        )
    return AdvertiseDelta(
        new.schema_uri,
        new.peer_id or old.peer_id or "",
        added_paths=tuple(sorted(new.paths - old.paths, key=str)),
        removed_paths=tuple(sorted(old.paths - new.paths, key=str)),
        added_classes=tuple(sorted(new.classes - old.classes, key=str)),
        removed_classes=tuple(sorted(old.classes - new.classes, key=str)),
        stats=stats,
    )


def apply_advertisement_delta(old: ActiveSchema, delta: AdvertiseDelta) -> ActiveSchema:
    """Reconstruct the new advertisement from ``old`` plus a delta.

    Inverse of :func:`advertisement_delta`:
    ``apply(old, delta(old, new)) == new`` for any pair over the same
    schema — the property the maintenance suite pins down.
    """
    if old.schema_uri != delta.schema_uri:
        raise SchemaError(
            f"delta for {delta.schema_uri} cannot apply to {old.schema_uri}"
        )
    paths = (old.paths - frozenset(delta.removed_paths)) | frozenset(delta.added_paths)
    classes = (old.classes - frozenset(delta.removed_classes)) | frozenset(
        delta.added_classes
    )
    return ActiveSchema(old.schema_uri, paths, classes, delta.peer_id or old.peer_id)


# ----------------------------------------------------------------------
# continuous queries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ContinuousSubscribe:
    """Client → coordinator: keep this query standing; push deltas."""

    query_id: str
    text: str
    reply_to: str

    def size_bytes(self) -> int:
        return 64 + len(self.text)


@dataclass(frozen=True)
class ContinuousUpdate:
    """Coordinator → subscriber: the answer changed by these bindings.

    Folding every update in revision order onto the initial snapshot
    reproduces the current answer: ``next = (prev - removed) + added``.
    Both tables cross the link packed, like every binding table.
    """

    query_id: str
    added: EncodedTable
    removed: EncodedTable
    revision: int
    error: Optional[str] = None

    def size_bytes(self) -> int:
        return 48 + self.added.size_bytes() + self.removed.size_bytes()


@dataclass(frozen=True)
class ContinuousCancel:
    """Subscriber → coordinator: stop pushing for this standing query."""

    query_id: str

    def size_bytes(self) -> int:
        return 48 + len(self.query_id)


@dataclass(frozen=True)
class RefreshStanding:
    """Injector → coordinator: revision ``revision`` has quiesced —
    re-evaluate your standing queries and push what changed.

    Driving re-evaluation from the update injector keeps the quiescent
    points explicit (and identical in sim and live runs) instead of
    guessing them from message silence.
    """

    revision: int

    def size_bytes(self) -> int:
        return 32


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def active_schema_digest(advertisements: Iterable[ActiveSchema]) -> str:
    """A canonical digest over a set of advertisements.

    Serialises each advertisement through its sorted ``to_dict`` wire
    form, orders by peer id, and hashes — so two registries agree on
    the digest iff they hold value-identical advertisements, however
    they were derived (incrementally or from scratch).
    """
    payload = sorted(
        (a.to_dict() for a in advertisements),
        key=lambda d: (str(d.get("peer")), json.dumps(d, sort_keys=True)),
    )
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
