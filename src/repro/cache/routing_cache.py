"""The routing cache: signature → annotation, coherent under churn.

A cached entry is the full routing answer for one canonical pattern
signature, stored in re-targetable form (per canonical position, the
annotating peers with their rewritten schema paths).  Coherence is the
hard part: peers join, leave (``Goodbye``) and refresh advertisements
at will, and a stale annotation must never be served — it would route
a live query to a departed peer or miss a newly advertised one.

Invalidation is *scoped*, not flush-the-world:

* a departing peer invalidates exactly the entries that annotate it
  (removing an advertisement can only ever remove annotations);
* a new or refreshed advertisement invalidates the entries whose query
  properties lie in the superproperty closure of the advertised
  properties — the same closure the
  :class:`~repro.core.routing_index.RoutingIndex` buckets use, so any
  entry the advertisement could possibly extend is dropped — plus, on
  refresh, the entries annotating the peer (its rewrites may change).

Every registry mutation bumps the cache ``epoch``; entries are stamped
with the epoch they were computed at, which makes staleness auditable
(an entry's epoch never trails a mutation that could affect it).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.annotations import AnnotatedQueryPattern, PeerAnnotation
from ..rdf.schema import Schema
from ..rdf.terms import URI
from ..rql.pattern import PathPattern, QueryPattern, SchemaPath
from ..rvl.active_schema import ActiveSchema
from .signature import Signature, pattern_signature

#: One cached peer annotation: (peer id, rewritten schema path, exact).
_StoredAnnotation = Tuple[str, SchemaPath, bool]


class CacheStats:
    """Hit/miss/invalidation counters one cache instance accumulates."""

    __slots__ = ("hits", "misses", "invalidations", "negative_hits")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.negative_hits = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"invalidations={self.invalidations})"
        )


class _Entry:
    """One cached routing answer in canonical (re-targetable) form.

    ``source_patterns`` / ``prebuilt`` additionally keep the immutable
    :class:`~repro.core.annotations.PeerAnnotation` objects of the
    pattern the entry was built from (in canonical order): when the
    same query repeats verbatim — the common warm case — the hit path
    replays them without constructing a single object.
    """

    __slots__ = (
        "schema_uri",
        "properties",
        "peers",
        "annotations",
        "source_patterns",
        "prebuilt",
        "epoch",
    )

    def __init__(
        self,
        schema_uri: str,
        properties: frozenset,
        peers: frozenset,
        annotations: Tuple[Tuple[_StoredAnnotation, ...], ...],
        source_patterns: Tuple[PathPattern, ...],
        prebuilt: Tuple[Tuple[PeerAnnotation, ...], ...],
        epoch: int,
    ):
        self.schema_uri = schema_uri
        self.properties = properties
        self.peers = peers
        self.annotations = annotations
        self.source_patterns = source_patterns
        self.prebuilt = prebuilt
        self.epoch = epoch

    @property
    def is_negative(self) -> bool:
        return not self.peers


class RoutingCache:
    """Signature-keyed cache of routing annotations for one registry.

    One cache instance serves one routing knowledge base — the
    :class:`~repro.core.routing_index.RoutingIndex` of one SON, at a
    super-peer or a simple peer alike — whose every mutation must be
    reported through :meth:`on_advertise` / :meth:`on_goodbye` (or the
    lower-level ``invalidate_*`` methods).

    Args:
        schemas: The community schemas whose subsumption closures scope
            advertisement-driven invalidation.  An advertisement for a
            schema not supplied here conservatively invalidates every
            entry of that schema.
        max_entries: Bound on stored entries (LRU-free FIFO eviction of
            the oldest signature; routing answers are cheap to rebuild).
    """

    def __init__(self, schemas: Iterable[Schema] = (), max_entries: int = 4096):
        self._schemas: Dict[str, Schema] = {
            s.namespace.uri: s for s in schemas if s is not None
        }
        self.max_entries = max_entries
        self.epoch = 0
        self.stats = CacheStats()
        self.metrics = None  # optionally a MetricSet, via bind_metrics()
        #: optional callable(count) fired per invalidation batch — the
        #: owning peer hangs a flight-recorder event off it
        self.on_invalidate = None
        self._entries: Dict[Tuple, _Entry] = {}
        self._by_peer: Dict[str, Set[Tuple]] = {}
        #: (schema uri, query property) -> signature keys
        self._by_property: Dict[Tuple[str, URI], Set[Tuple]] = {}

    def bind_metrics(self, metrics) -> None:
        """Mirror hit/miss/invalidation counts into a MetricSet."""
        self.metrics = metrics

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def get(
        self, pattern: QueryPattern, signature: Optional[Signature] = None
    ) -> Optional[AnnotatedQueryPattern]:
        """The cached annotation re-targeted onto ``pattern``, or None.

        Re-targeting rebuilds each rewritten subquery with the *new*
        pattern's label and variables around the cached (narrowed)
        schema path, so a hit is indistinguishable from a cold route.
        """
        if signature is None:
            signature = pattern_signature(pattern)
        entry = self._entries.get(signature.key)
        if entry is None:
            self.stats.misses += 1
            if self.metrics is not None:
                self.metrics.count("cache_misses")
            return None
        self.stats.hits += 1
        if entry.is_negative:
            self.stats.negative_hits += 1
        if self.metrics is not None:
            self.metrics.count("cache_hits")
        annotated = AnnotatedQueryPattern(pattern)
        patterns = pattern.patterns
        for position, j in enumerate(signature.order):
            target = patterns[j]
            if target == entry.source_patterns[position]:
                # verbatim repeat: replay the stored immutable
                # annotations, zero construction
                annotated.extend_trusted(target, entry.prebuilt[position])
                continue
            annotated.extend_trusted(
                target,
                [
                    PeerAnnotation(
                        peer_id,
                        PathPattern(
                            label=target.label,
                            schema_path=schema_path,
                            subject_var=target.subject_var,
                            object_var=target.object_var,
                            projected=target.projected,
                        ),
                        exact,
                    )
                    for peer_id, schema_path, exact in entry.annotations[position]
                ],
            )
        return annotated

    def put(
        self,
        pattern: QueryPattern,
        annotated: AnnotatedQueryPattern,
        signature: Optional[Signature] = None,
    ) -> None:
        """Store one routing answer (empty annotations cache negatively)."""
        if signature is None:
            signature = pattern_signature(pattern)
        if signature.key in self._entries:
            self._unlink(signature.key)
        elif len(self._entries) >= self.max_entries:
            oldest = next(iter(self._entries))
            self._unlink(oldest)
            del self._entries[oldest]
        patterns = pattern.patterns
        stored: List[Tuple[_StoredAnnotation, ...]] = []
        prebuilt: List[Tuple[PeerAnnotation, ...]] = []
        source: List[PathPattern] = []
        peers: Set[str] = set()
        for j in signature.order:
            target = patterns[j]
            annotations = annotated.annotations(target)
            row = tuple(
                (a.peer_id, a.rewritten.schema_path, a.exact) for a in annotations
            )
            stored.append(row)
            prebuilt.append(annotations)
            source.append(target)
            peers.update(a[0] for a in row)
        properties = frozenset(p.schema_path.property for p in patterns)
        entry = _Entry(
            pattern.schema.namespace.uri,
            properties,
            frozenset(peers),
            tuple(stored),
            tuple(source),
            tuple(prebuilt),
            self.epoch,
        )
        self._entries[signature.key] = entry
        for peer_id in entry.peers:
            self._by_peer.setdefault(peer_id, set()).add(signature.key)
        for prop in properties:
            self._by_property.setdefault(
                (entry.schema_uri, prop), set()
            ).add(signature.key)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def _unlink(self, key: Tuple) -> None:
        entry = self._entries[key]
        for peer_id in entry.peers:
            bucket = self._by_peer.get(peer_id)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_peer[peer_id]
        for prop in entry.properties:
            bucket = self._by_property.get((entry.schema_uri, prop))
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_property[(entry.schema_uri, prop)]

    def _drop(self, keys: Iterable[Tuple]) -> int:
        count = 0
        for key in list(keys):
            if key in self._entries:
                self._unlink(key)
                del self._entries[key]
                count += 1
        if count:
            self.stats.invalidations += count
            if self.metrics is not None:
                self.metrics.count("cache_invalidations", count)
            if self.on_invalidate is not None:
                self.on_invalidate(count)
        return count

    def invalidate_peer(self, peer_id: str) -> int:
        """Drop exactly the entries annotating ``peer_id``."""
        return self._drop(self._by_peer.get(peer_id, ()))

    def invalidate_properties(
        self, schema_uri: str, properties: Iterable[URI]
    ) -> int:
        """Drop the entries a new advertisement of ``properties`` under
        ``schema_uri`` could extend.

        The affected query properties are the superproperty closure of
        the advertised ones (an advertisement for ``prop4 ⊑ prop1``
        answers ``prop1`` queries).  Without the schema's closure the
        scope cannot be computed, so every entry of that schema drops —
        over-invalidation is always safe, under-invalidation never is.
        """
        schema = self._schemas.get(schema_uri)
        if schema is None:
            return self._drop(
                key
                for key, entry in self._entries.items()
                if entry.schema_uri == schema_uri
            )
        affected: Set[Tuple] = set()
        for prop in properties:
            if schema.has_property(prop):
                keys: Iterable[URI] = schema.superproperties(prop)
            else:
                keys = (prop,)
            for query_prop in keys:
                affected.update(self._by_property.get((schema_uri, query_prop), ()))
        return self._drop(affected)

    def on_advertise(
        self, advertisement: ActiveSchema, previous: Optional[ActiveSchema] = None
    ) -> int:
        """A peer advertised (join or refresh): scoped invalidation.

        Entries annotating the peer drop (its rewrites may change);
        entries whose query properties the new footprint could answer
        drop (they may gain an annotation).  An unchanged re-advertise
        is a no-op.
        """
        if previous is not None and previous == advertisement:
            return 0
        self.epoch += 1
        count = 0
        if advertisement.peer_id is not None:
            count += self.invalidate_peer(advertisement.peer_id)
        count += self.invalidate_properties(
            advertisement.schema_uri, {p.property for p in advertisement}
        )
        return count

    def on_goodbye(self, peer_id: str) -> int:
        """A peer departed: only entries annotating it can be stale."""
        self.epoch += 1
        return self.invalidate_peer(peer_id)

    def clear(self) -> int:
        """Flush everything (epoch bumps; counters record the flush)."""
        self.epoch += 1
        return self._drop(list(self._entries))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def entry_epoch(self, pattern: QueryPattern) -> Optional[int]:
        """The registry epoch a cached pattern was computed at."""
        entry = self._entries.get(pattern_signature(pattern).key)
        return entry.epoch if entry is not None else None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pattern: QueryPattern) -> bool:
        return pattern_signature(pattern).key in self._entries

    def __repr__(self) -> str:
        return f"RoutingCache(entries={len(self._entries)}, epoch={self.epoch}, {self.stats})"
