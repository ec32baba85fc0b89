"""What one node knows of its Semantic Overlay Networks.

A SON clusters the peers that employ one community RDF/S schema
(Section 1), and the paper has one notion of routing knowledge: the
active-schemas a peer holds for a SON, scanned by one Query-Routing
Algorithm (Sections 2.2-2.3) whether the holder is a super-peer or an
ad-hoc neighbour.  :class:`SONRegistry` is that knowledge, one object
per node: a :class:`~repro.core.routing_index.RoutingIndex` per SON
(its dict is *the* copy of a remote advertisement, keyed by schema URI
then peer id), the node's quarantine verdicts, and the writes to its
durable log.  Both roles file, patch, drop, route, suspect and recover
through it; what differs between them stays on the role.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..config import DEFAULT_CONFIG
from ..core.annotations import AnnotatedQueryPattern
from ..core.routing_index import RoutingIndex
from ..livedata.updates import AdvertiseDelta, apply_advertisement_delta
from ..rdf.schema import Schema
from ..resilience.detector import PeerQuarantine
from ..rql.pattern import QueryPattern
from ..rvl.active_schema import ActiveSchema


class _NoHolder:
    """Holder of a registry built on its own: no network, no durable
    log, the default behaviour."""

    peer_id = network = state_store = None
    config = DEFAULT_CONFIG


class SONRegistry:
    """The advertisements one node holds, grouped into SONs by
    community schema URI.

    Args:
        holder: The :class:`~repro.peers.base.Peer` whose knowledge
            this is.  The registry reads its ``config`` (caching, and
            quarantine at the moment of use), ``network`` (counters,
            flight-recorder events, spans) and ``state_store`` (the
            durable log) as they are when a verb runs; without a holder
            it is a plain in-memory store.
        schemas: The community schemas the node holds.  Only their SONs
            can be routed over; an advertisement of any other SON is
            kept and listed, and annotates nothing.
    """

    def __init__(self, holder=None, schemas: Iterable[Schema] = ()):
        self.holder = holder if holder is not None else _NoHolder
        self._reset(schemas)

    def _reset(self, schemas: Iterable[Schema]) -> None:
        self.quarantine = PeerQuarantine()
        self._sons: Dict[str, RoutingIndex] = {}
        for schema in schemas:
            self.hold(schema)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _index(self, schema_uri: str, schema: Optional[Schema] = None) -> RoutingIndex:
        index = RoutingIndex(schema, use_cache=self.holder.config.cache_enabled)
        self._sons[schema_uri] = index
        if self.holder.network is not None:
            self._bind(index, self.holder.network)
        return index

    def _bind(self, index: RoutingIndex, network) -> None:
        if index.cache is not None:
            index.cache.bind_metrics(network.metrics)
            index.cache.on_invalidate = lambda count: network.emit_event(
                "cache_invalidate", peer=self.holder.peer_id, entries=count
            )

    def hold(self, schema: Schema) -> None:
        """Take on a community schema: its SON becomes routable, the
        advertisements already kept for it included."""
        uri = schema.namespace.uri
        kept = self._sons.get(uri)
        if kept is None or kept.schema is None:
            index = self._index(uri, schema)
            for advertisement in kept.advertisements() if kept is not None else ():
                index.add(advertisement)

    def join(self, network) -> None:
        """The holder joined ``network``: caches count into its metrics,
        and its liveness control events keep them honest — a cached
        annotation must never resurrect a peer known to be down."""
        for index in self._sons.values():
            self._bind(index, network)
        network.add_liveness_listener(self._on_liveness)

    # ------------------------------------------------------------------
    # advertisements
    # ------------------------------------------------------------------
    def add(
        self, advertisement: ActiveSchema, record: bool = True
    ) -> Optional[ActiveSchema]:
        """File an advertisement under its schema's SON, in place of the
        one held for that peer; returns the one it replaced.  A change
        is logged unless ``record`` is off (replayed state)."""
        index = self._sons.get(advertisement.schema_uri)
        if index is None:
            index = self._index(advertisement.schema_uri)
        previous = index.add(advertisement)
        store = self.holder.state_store
        if record and store is not None and previous != advertisement:
            store.log_advertise(advertisement)
        return previous

    def patch(self, delta: AdvertiseDelta) -> Optional[ActiveSchema]:
        """Apply an incremental change to the advertisement it names
        and file the result, which is returned; ``None`` when there is
        no baseline to patch (the delta raced ahead of the first push,
        or state was lost) and the caller should pull instead."""
        index = self._sons.get(delta.schema_uri)
        previous = index.get(delta.peer_id) if index is not None else None
        if previous is None:
            return None
        advertisement = apply_advertisement_delta(previous, delta)
        self.add(advertisement)
        return advertisement

    def remove_peer(self, peer_id: str) -> None:
        """Drop a departed peer from every SON."""
        dropped = False
        for index in self._sons.values():
            if peer_id in index:
                index.remove(peer_id)
                dropped = True
        holder = self.holder
        if dropped:
            if holder.network is not None:
                holder.network.metrics.count("goodbyes")
            if holder.state_store is not None:
                holder.state_store.log_goodbye(peer_id)

    def restore_from(self, recovered) -> None:
        """Start over from a
        :class:`~repro.durability.state.RecoveredState`: the
        advertisements and quarantine verdicts it replayed replace what
        is held, without being logged or counted again."""
        held = [index.schema for index in self._sons.values()]
        self._reset(schema for schema in held if schema is not None)
        for advertisement in recovered.advertisements.values():
            self.add(advertisement, record=False)
        for suspect in sorted(recovered.quarantined):
            while not self.quarantine.is_quarantined(suspect):
                self.quarantine.record_failure(suspect)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(
        self,
        pattern: QueryPattern,
        beside: Sequence[ActiveSchema] = (),
        trace=None,
    ) -> AnnotatedQueryPattern:
        """Annotate ``pattern`` from the SON of its schema: routing
        cache, then bucket candidates through the Query-Routing
        Algorithm, then — with quarantine on — minus the suspected
        peers.  The filter sits after the cache so entries stay
        unfiltered and :meth:`restore` needs to invalidate one scope.

        ``beside`` is routed but not filed (the holder's own
        advertisements).  With ``trace`` (a span context), a cold pass
        is covered by a ``subsumption`` span under it.
        """
        holder = self.holder
        index = self._sons.get(pattern.schema.namespace.uri)
        if index is None:
            return AnnotatedQueryPattern(pattern)
        span = None
        if trace is not None:
            span = partial(
                holder.network.tracer.start_span,
                "subsumption", peer=holder.peer_id, parent=trace,
            )
        annotated = index.route(pattern, beside, span)
        if holder.config.resilience.quarantine_enabled and len(self.quarantine):
            annotated = annotated.without_peers(self.quarantine.peers)
        return annotated

    # ------------------------------------------------------------------
    # liveness / suspicion
    # ------------------------------------------------------------------
    def _on_liveness(self, peer_id: str, alive: bool) -> None:
        if peer_id == self.holder.peer_id:
            return
        if alive:
            self.restore(peer_id)
        else:
            self.invalidate(peer_id)

    def invalidate(self, peer_id: str) -> None:
        """Forget every cached annotation naming ``peer_id``."""
        for index in self._sons.values():
            if index.cache is not None:
                index.cache.invalidate_peer(peer_id)

    def suspect(self, peer_id: str) -> None:
        """An observation (timeout, missed heartbeats, bounced channel)
        says ``peer_id`` may be dead: its cached routing goes and, with
        quarantine on, it stays out of :meth:`route` until heard from
        again.  Its advertisements are untouched, so that takes no
        re-advertising."""
        holder = self.holder
        if peer_id == holder.peer_id:
            return
        network = holder.network
        if network is not None:
            network.metrics.count("suspicions")
        self.invalidate(peer_id)
        if holder.config.resilience.quarantine_enabled and (
            self.quarantine.record_failure(peer_id)
        ):
            if network is not None:
                network.emit_event("quarantine", peer=holder.peer_id, suspect=peer_id)
            if holder.state_store is not None:
                holder.state_store.log_quarantine(peer_id)

    def restore(self, peer_id: str) -> bool:
        """``peer_id`` was heard from again (heartbeat, recovery, a
        fresh advertisement): lift its quarantine and — symmetric with
        :meth:`suspect` — drop the routing entries computed while it
        was excluded.  True when a quarantine was lifted."""
        if not self.quarantine.restore(peer_id):
            return False
        self.invalidate(peer_id)
        if self.holder.state_store is not None:
            self.holder.state_store.log_rehabilitate(peer_id)
        return True

    # ------------------------------------------------------------------
    # listing
    # ------------------------------------------------------------------
    def members(self, schema_uri: str) -> Set[str]:
        """Peers belonging to one SON."""
        return {a.peer_id for a in self.advertisements(schema_uri)}

    def advertisements(self, schema_uri: Optional[str] = None) -> List[ActiveSchema]:
        """One SON's advertisements sorted by peer id — or, without a
        URI, every SON's in turn."""
        if schema_uri is None:
            return [a for index in self._sons.values() for a in index.advertisements()]
        index = self._sons.get(schema_uri)
        return index.advertisements() if index is not None else []

    def sons(self) -> List[str]:
        """The schema URIs with at least one member."""
        return sorted(uri for uri, index in self._sons.items() if len(index))

    def sons_of(self, peer_id: str) -> List[str]:
        """The SONs one peer belongs to."""
        return sorted(uri for uri, index in self._sons.items() if peer_id in index)

    def __len__(self) -> int:
        """Advertisements held, over every SON."""
        return sum(len(index) for index in self._sons.values())
