"""A property-bucket index over advertisements for fast routing.

Scanning every advertisement per query (the paper's pseudocode) is
O(#advertisements × #paths).  A super-peer serving a large SON instead
maintains buckets keyed by property URI — each advertisement filed
under every advertised property *and its superproperties*, the same
subsumption-closure trick the schema DHT uses — so routing touches only
the candidate advertisements of each path pattern and then applies the
precise ``isSubsumed`` check.  Results are identical to the exhaustive
scan (the closure makes the bucket lookup complete; the precise check
keeps it sound).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from ..rdf.schema import Schema
from ..rdf.terms import URI
from ..rql.pattern import QueryPattern
from ..rvl.active_schema import ActiveSchema
from .annotations import AnnotatedQueryPattern
from .routing import route_query


class RoutingIndex:
    """Incremental advertisement index for one SON.

    Args:
        schema: The community schema (supplies the subsumption closure).
            ``None`` for a SON whose schema the holder does not have:
            such an index keeps and lists advertisements but files them
            under no bucket, so it annotates nothing.
        use_cache: Layer a :class:`~repro.cache.routing_cache.RoutingCache`
            over the index (the default).  Every registry mutation flows
            through :meth:`add` / :meth:`remove`, so the index keeps its
            cache coherent with scoped invalidation on its own.  Set
            False to run uncached (the ``--no-cache`` escape hatch; also
            handy for benchmarking the cold path).
    """

    def __init__(self, schema: Optional[Schema], use_cache: bool = True):
        self.schema = schema
        self.cache = None
        if use_cache:
            from ..cache.routing_cache import RoutingCache

            self.cache = RoutingCache()
        self._buckets: Dict[URI, Set[str]] = {}
        self._advertisements: Dict[str, ActiveSchema] = {}

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _keys_for(self, advertisement: ActiveSchema) -> Set[URI]:
        keys: Set[URI] = set()
        if self.schema is None:
            return keys
        for path in advertisement:
            if self.schema.has_property(path.property):
                keys.update(self.schema.superproperties(path.property))
            else:
                keys.add(path.property)
        return keys

    def add(self, advertisement: ActiveSchema) -> Optional[ActiveSchema]:
        """File one peer's advertisement in place of the one held (a
        refresh replaces, Section 2.2: a property that emptied out must
        stop annotating); returns the one it replaced."""
        peer_id = advertisement.peer_id
        if peer_id is None:
            raise ValueError("advertisement must carry a peer id")
        previous = self._advertisements.get(peer_id)
        if previous == advertisement:
            return previous
        self._unfile(peer_id)
        self._advertisements[peer_id] = advertisement
        keys = self._keys_for(advertisement)
        for key in keys:
            self._buckets.setdefault(key, set()).add(peer_id)
        if self.cache is not None:
            self.cache.on_advertise(peer_id, keys)
        return previous

    def remove(self, peer_id: str) -> None:
        """Drop a departed peer."""
        if peer_id not in self._advertisements:
            return
        self._unfile(peer_id)
        if self.cache is not None:
            self.cache.on_goodbye(peer_id)

    def _unfile(self, peer_id: str) -> None:
        advertisement = self._advertisements.pop(peer_id, None)
        if advertisement is None:
            return
        for key in self._keys_for(advertisement):
            bucket = self._buckets.get(key)
            if bucket is not None:
                bucket.discard(peer_id)
                if not bucket:
                    del self._buckets[key]

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def candidates(self, prop: URI) -> List[ActiveSchema]:
        """Advertisements possibly relevant to a query on ``prop``."""
        peers = self._buckets.get(prop, set())
        return [self._advertisements[p] for p in sorted(peers)]

    def route(
        self,
        pattern: QueryPattern,
        beside: Sequence[ActiveSchema] = (),
        span: Optional[Callable] = None,
    ) -> AnnotatedQueryPattern:
        """Routing over bucket candidates only; result identical to the
        exhaustive :func:`~repro.core.routing.route_query` scan.

        With a cache attached, a repeated pattern is answered from the
        cache (an alpha-renamed or reordered one is a miss); unanswerable
        patterns — including the empty-registry case — are cached
        negatively and revived by the next relevant :meth:`add`.

        ``beside`` are advertisements routed with the filed ones but
        never filed nor cached: a simple peer's own, which it re-derives
        from its base for every query because the base can change
        silently.  ``span(candidates=n)`` opens the span that covers a
        cold subsumption pass; a cache hit opens none.
        """
        annotated = self.cache.get(pattern) if self.cache is not None else None
        check = None
        if annotated is None:
            candidate_peers: Set[str] = set()
            for path_pattern in pattern:
                candidate_peers.update(
                    self._buckets.get(path_pattern.schema_path.property, ())
                )
            candidates = [self._advertisements[p] for p in sorted(candidate_peers)]
            if span is not None:
                check = span(candidates=len(candidates) + len(beside))
            annotated = route_query(pattern, candidates, self.schema)
            if self.cache is not None:
                self.cache.put(pattern, annotated)
        if beside:
            annotated = annotated.merge(route_query(pattern, beside, self.schema))
        if check is not None:
            check.set(peers=len(annotated.all_peers()))
            check.finish()
        return annotated

    def get(self, peer_id: str) -> Optional[ActiveSchema]:
        """The advertisement filed for ``peer_id``, if any."""
        return self._advertisements.get(peer_id)

    def advertisements(self) -> List[ActiveSchema]:
        """All filed advertisements, sorted by peer id."""
        return [self._advertisements[p] for p in sorted(self._advertisements)]

    def __len__(self) -> int:
        return len(self._advertisements)

    def __contains__(self, peer_id: str) -> bool:
        return peer_id in self._advertisements
