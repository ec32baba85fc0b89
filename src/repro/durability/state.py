"""Per-peer durable state: snapshot + membership log + recovery.

:class:`PeerStateStore` is the one durability handle a peer holds.  It
persists a **snapshot** of the peer's base (sorted N-Triples), view
definitions (their source text) and derived active-schema, and appends
membership events — remote advertisements, goodbyes, quarantine
verdicts, rehabilitations and own-advertisement refreshes — to the
checksummed log.  :meth:`recover` replays the log over the snapshot and
returns everything a rejoining peer needs to resume: its base, views,
active-schema, remembered advertisements and quarantine set.

Snapshots never truncate the log: the log is an append-only history
across restarts and is fully replayed on every recovery (events are
last-writer-wins per SON and peer, so replay is idempotent).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from ..rdf.graph import Graph
from ..rdf.serializer import deserialize, serialize
from ..rvl.active_schema import ActiveSchema
from ..rvl.parser import parse_view
from ..rvl.view import ViewDefinition
from .log import decode_log, encode_record

#: Snapshot document version (bump on incompatible layout changes).
SNAPSHOT_VERSION = 1


@dataclass
class RecoveredState:
    """What :meth:`PeerStateStore.recover` reconstructs."""

    graph: Optional[Graph] = None
    views: Tuple[ViewDefinition, ...] = ()
    active_schema: Optional[ActiveSchema] = None
    #: remembered advertisements by ``(schema URI, peer id)`` — the key
    #: of a :class:`~repro.peers.son.SONRegistry`, which
    #: ``restore_from`` replays them into
    advertisements: Dict[Tuple[str, str], ActiveSchema] = field(default_factory=dict)
    quarantined: Set[str] = field(default_factory=set)
    #: completed crash-recoveries before this one (salts channel ids so
    #: a rejoined incarnation can never collide with its predecessor's)
    incarnations: int = 0
    #: log records replayed over the snapshot
    replayed: int = 0
    #: False when the log ended in a torn/damaged record (tolerated)
    clean: bool = True
    #: False when neither a snapshot nor a log existed
    found: bool = False

    def digest(self) -> str:
        return peer_state_digest(
            self.graph,
            self.views,
            self.active_schema,
            self.advertisements.values(),
            self.quarantined,
        )


def peer_state_digest(
    graph: Optional[Graph],
    views: Sequence[ViewDefinition],
    active_schema: Optional[ActiveSchema],
    advertisements: Iterable[ActiveSchema],
    quarantined: Iterable[str],
) -> str:
    """A canonical digest of one peer's membership-relevant state.

    Byte-equality of digests is the crash-recovery acceptance oracle:
    a peer recovered after a kill at any log boundary must digest
    identically to an uncrashed twin that saw the same events.
    ``advertisements`` are the remote ones held, in any order (a
    recovered state's values, a live registry's listing); a member of
    one SON digests as its advertisement, a member of several as the
    list of them by schema URI.
    """
    held: Dict[str, list] = {}
    for advertisement in sorted(advertisements, key=lambda a: a.schema_uri):
        held.setdefault(advertisement.peer_id, []).append(advertisement.to_dict())
    document = {
        "base": serialize(graph) if graph is not None else None,
        "views": [view.text for view in views],
        "active_schema": active_schema.to_dict() if active_schema else None,
        "advertisements": {
            peer: of_peer[0] if len(of_peer) == 1 else of_peer
            for peer, of_peer in held.items()
        },
        "quarantined": sorted(quarantined),
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Convenience alias usable on a :class:`RecoveredState` or raw parts.
def state_digest(state: RecoveredState) -> str:
    return state.digest()


class PeerStateStore:
    """One peer's durability handle over a backing store.

    Opening the handle scans the log once: a torn tail left by a crash
    mid-append is cut back to the longest valid prefix (so later
    appends commit after the last *committed* record, never after
    garbage) and the append sequence continues from there.
    """

    def __init__(self, store, peer_id: str):
        self.store = store
        self.peer_id = peer_id
        self.metrics = None
        records, clean = decode_log(store.read_log())
        if not clean:
            store.rewrite_log(
                b"".join(encode_record(r.seq, r.kind, r.data) for r in records)
            )
        self._seq = len(records)

    def bind_metrics(self, metrics) -> None:
        self.metrics = metrics

    def exists(self) -> bool:
        return self.store.exists()

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------
    def save_snapshot(
        self,
        graph: Optional[Graph],
        views: Sequence[ViewDefinition] = (),
        active_schema: Optional[ActiveSchema] = None,
    ) -> int:
        """Persist the peer's base/views/active-schema; returns bytes."""
        document = {
            "version": SNAPSHOT_VERSION,
            "peer": self.peer_id,
            "base": serialize(graph) if graph is not None else None,
            "views": [view.text for view in views],
            "active_schema": active_schema.to_dict() if active_schema else None,
        }
        text = json.dumps(document, sort_keys=True, indent=1)
        self.store.write_snapshot(text)
        nbytes = len(text.encode("utf-8"))
        if self.metrics is not None:
            self.metrics.count("snapshot_bytes", nbytes)
        return nbytes

    # ------------------------------------------------------------------
    # membership log
    # ------------------------------------------------------------------
    def _append(self, kind: str, data: dict) -> None:
        self.store.append_log(encode_record(self._seq, kind, data))
        self._seq += 1

    def log_advertise(self, advertisement: ActiveSchema) -> None:
        """A remote peer's advertisement arrived (or changed)."""
        self._append("advertise", advertisement.to_dict())

    def log_self_advertise(self, advertisement: ActiveSchema) -> None:
        """This peer refreshed its own advertisement (footprint drift)."""
        self._append("self", advertisement.to_dict())

    def log_goodbye(self, peer_id: str) -> None:
        self._append("goodbye", {"peer": peer_id})

    def log_quarantine(self, peer_id: str) -> None:
        self._append("quarantine", {"peer": peer_id})

    def log_rehabilitate(self, peer_id: str) -> None:
        self._append("rehabilitate", {"peer": peer_id})

    def log_recover(self) -> None:
        """This peer is starting a crash-recovered incarnation.

        Recorded so survivors of the *previous* incarnation cannot
        confuse the two: recovery counts feed the channel-id epoch and
        a retransmit-replay cache keyed by an older incarnation's
        channel ids must never answer a newer one's subplans.
        """
        self._append("recover", {"peer": self.peer_id})

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveredState:
        """Snapshot plus replayed log = the state to resume from."""
        state = RecoveredState()
        text = self.store.read_snapshot()
        if text is not None:
            document = json.loads(text)
            state.found = True
            if document.get("base") is not None:
                state.graph = deserialize(document["base"])
            state.views = tuple(
                parse_view(source) for source in document.get("views", ())
            )
            if document.get("active_schema"):
                state.active_schema = ActiveSchema.from_dict(
                    document["active_schema"]
                )
        records, clean = decode_log(self.store.read_log())
        state.clean = clean
        for record in records:
            state.found = True
            if record.kind == "advertise":
                advertisement = ActiveSchema.from_dict(record.data)
                if advertisement.peer_id:
                    key = (advertisement.schema_uri, advertisement.peer_id)
                    state.advertisements[key] = advertisement
            elif record.kind == "self":
                state.active_schema = ActiveSchema.from_dict(record.data)
            elif record.kind == "goodbye":
                departed = record.data["peer"]
                for key in [k for k in state.advertisements if k[1] == departed]:
                    del state.advertisements[key]
            elif record.kind == "quarantine":
                state.quarantined.add(record.data["peer"])
            elif record.kind == "rehabilitate":
                state.quarantined.discard(record.data["peer"])
            elif record.kind == "recover":
                state.incarnations += 1
            # unknown kinds: a newer incarnation's events — skipped
        state.replayed = len(records)
        if self.metrics is not None and records:
            self.metrics.count("log_replays", len(records))
        return state
