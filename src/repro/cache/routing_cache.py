"""The routing cache: query pattern → annotation, coherent under churn.

A cached entry is the full routing answer for one query pattern, kept
as the annotations of each of its path patterns.  The key is the
pattern itself (it compares by value): a repeat of the query hits,
while an alpha-renamed or reordered variant is a miss and routes cold.
Coherence is the hard part: peers join, leave (``Goodbye``) and
refresh advertisements at will, and a stale annotation must never be
served — it would route a live query to a departed peer or miss a
newly advertised one.

Invalidation is *scoped*, not flush-the-world:

* a departing peer invalidates exactly the entries that annotate it
  (removing an advertisement can only ever remove annotations);
* a new or refreshed advertisement invalidates the entries annotating
  the peer (its rewrites may change) plus the entries whose query
  properties lie in the advertisement's superproperty closure.  The
  :class:`~repro.core.routing_index.RoutingIndex` computes that closure
  once, for its own buckets, and hands it over in :meth:`on_advertise`;
  so any entry the advertisement could possibly extend is dropped.

Every registry mutation bumps the cache ``epoch``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from ..core.annotations import AnnotatedQueryPattern, PeerAnnotation
from ..rdf.terms import URI
from ..rql.pattern import QueryPattern


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
    """One cached routing answer: per path pattern (in FROM-clause
    order) its immutable :class:`~repro.core.annotations.PeerAnnotation`
    objects, which a hit replays without constructing a single one."""

    __slots__ = ("properties", "peers", "annotations")

    def __init__(
        self,
        properties: frozenset,
        peers: frozenset,
        annotations: Tuple[Tuple[PeerAnnotation, ...], ...],
    ):
        self.properties = properties
        self.peers = peers
        self.annotations = annotations

    @property
    def is_negative(self) -> bool:
        return not self.peers


class RoutingCache:
    """Pattern-keyed cache of routing annotations for one registry.

    One cache instance serves one routing knowledge base — the
    :class:`~repro.core.routing_index.RoutingIndex` of one SON, at a
    super-peer or a simple peer alike — whose every mutation must be
    reported through :meth:`on_advertise` / :meth:`on_goodbye`.

    Args:
        max_entries: Bound on stored entries (LRU-free FIFO eviction of
            the oldest pattern; routing answers are cheap to rebuild).
    """

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max_entries
        self.epoch = 0
        self.stats = CacheStats()
        self.metrics = None  # optionally a MetricSet, via bind_metrics()
        #: optional callable(count) fired per invalidation batch — the
        #: owning peer hangs a flight-recorder event off it
        self.on_invalidate = None
        self._entries: Dict[QueryPattern, _Entry] = {}
        self._by_peer: Dict[str, Set[QueryPattern]] = {}
        #: query property -> patterns querying it
        self._by_property: Dict[URI, Set[QueryPattern]] = {}

    def bind_metrics(self, metrics) -> None:
        """Mirror hit/miss/invalidation counts into a MetricSet."""
        self.metrics = metrics

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def get(self, pattern: QueryPattern) -> Optional[AnnotatedQueryPattern]:
        """A fresh annotation of ``pattern`` replayed from its entry, or
        None.  Never the stored object: callers annotate the result in
        place."""
        entry = self._entries.get(pattern)
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
        for target, annotations in zip(pattern.patterns, entry.annotations):
            annotated.extend_trusted(target, annotations)
        return annotated

    def put(self, pattern: QueryPattern, annotated: AnnotatedQueryPattern) -> None:
        """Store one routing answer (empty annotations cache negatively)."""
        if pattern in self._entries:
            self._unlink(pattern)
        elif len(self._entries) >= self.max_entries:
            oldest = next(iter(self._entries))
            self._unlink(oldest)
            del self._entries[oldest]
        annotations = tuple(annotated.annotations(p) for p in pattern.patterns)
        entry = _Entry(
            frozenset(p.schema_path.property for p in pattern.patterns),
            frozenset(a.peer_id for row in annotations for a in row),
            annotations,
        )
        self._entries[pattern] = entry
        for peer_id in entry.peers:
            self._by_peer.setdefault(peer_id, set()).add(pattern)
        for prop in entry.properties:
            self._by_property.setdefault(prop, set()).add(pattern)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def _unlink(self, pattern: QueryPattern) -> None:
        entry = self._entries[pattern]
        for index, keys in (
            (self._by_peer, entry.peers),
            (self._by_property, entry.properties),
        ):
            for key in keys:
                bucket = index.get(key)
                if bucket is not None:
                    bucket.discard(pattern)
                    if not bucket:
                        del index[key]

    def _drop(self, patterns: Iterable[QueryPattern]) -> int:
        count = 0
        for pattern in list(patterns):
            if pattern in self._entries:
                self._unlink(pattern)
                del self._entries[pattern]
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

    def on_advertise(self, peer_id: str, properties: Iterable[URI]) -> int:
        """A peer advertised (join or refresh): scoped invalidation.

        Entries annotating the peer drop (its rewrites may change);
        entries querying one of ``properties`` — the superproperty
        closure of the advertised ones, which the new footprint could
        answer — drop too (they may gain an annotation).
        """
        self.epoch += 1
        count = self.invalidate_peer(peer_id)
        affected: Set[QueryPattern] = set()
        for prop in properties:
            affected.update(self._by_property.get(prop, ()))
        return count + self._drop(affected)

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
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pattern: QueryPattern) -> bool:
        return pattern in self._entries

    def __repr__(self) -> str:
        return f"RoutingCache(entries={len(self._entries)}, epoch={self.epoch}, {self.stats})"
