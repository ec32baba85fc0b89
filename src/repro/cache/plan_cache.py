"""The plan cache: compiled + optimised plans, layered on routing.

Plan compilation (Section 2.4's recursion plus Figure 4's algebraic
rewrites) is deterministic in three inputs: the query pattern, its
routing annotation, and the optimiser's statistics.  The cache keys on
exactly those — ``(annotation fingerprint, statistics version)``,
where the fingerprint already embeds the pattern signature — so a
cached plan is only ever served when a fresh compile would reproduce
it bit for bit.

Unlike routing annotations, a compiled plan embeds the query's actual
labels and variables (its scans become wire subqueries), so reuse
additionally requires the stored pattern to *equal* the incoming one —
an isomorphic-but-renamed query is a miss here even though it hits the
routing cache.  Plans are immutable once built; sharing one across
executions is safe.

A compiled plan also *names* peers (its scans are addressed wire
subqueries), so each entry remembers the peer set its plan touches and
:meth:`PlanCache.invalidate_peer` drops exactly those entries.  The
live data plane relies on this: when a peer's advertisement changes —
a view redefinition above all — any cached plan naming it may carry
rewrites against the *old* view.  A racing stale annotation (obtained
before the change) would otherwise re-key to the old fingerprint and
be served that stale plan.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..core.algebra import PlanNode
from ..core.annotations import AnnotatedQueryPattern
from ..rql.pattern import QueryPattern
from .routing_cache import CacheStats
from .signature import annotation_fingerprint


class PlanCache:
    """LRU cache of compiled plans keyed by routing + statistics state.

    Args:
        max_entries: LRU bound; plan reuse is an optimisation, eviction
            only costs a recompile.
    """

    def __init__(self, max_entries: int = 512):
        self.max_entries = max_entries
        self.stats = CacheStats()
        self.metrics = None  # optionally a MetricSet, via bind_metrics()
        #: key → (pattern, plan, peers the plan names)
        self._entries: "OrderedDict[Tuple, Tuple[QueryPattern, PlanNode, frozenset]]" = (
            OrderedDict()
        )

    def bind_metrics(self, metrics) -> None:
        self.metrics = metrics

    def _key(self, annotated: AnnotatedQueryPattern, version: int) -> Tuple:
        return (annotation_fingerprint(annotated), version)

    def get(
        self, annotated: AnnotatedQueryPattern, version: int = 0
    ) -> Optional[PlanNode]:
        """A plan a fresh compile would reproduce, or ``None``."""
        key = self._key(annotated, version)
        entry = self._entries.get(key)
        if entry is not None and entry[0] == annotated.query_pattern:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if self.metrics is not None:
                self.metrics.count("cache_hits")
            return entry[1]
        self.stats.misses += 1
        if self.metrics is not None:
            self.metrics.count("cache_misses")
        return None

    def put(
        self, annotated: AnnotatedQueryPattern, plan: PlanNode, version: int = 0
    ) -> None:
        key = self._key(annotated, version)
        self._entries[key] = (
            annotated.query_pattern,
            plan,
            frozenset(annotated.all_peers()),
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def invalidate_peer(self, peer_id: str) -> int:
        """Drop every cached plan that names ``peer_id``.

        Called when the peer's advertisement moves (delta or full
        refresh, view redefinitions included) or it departs: its cached
        plans may address subqueries rewritten against state the peer
        no longer has.  Fingerprint re-keying covers *fresh*
        annotations; this covers plans reachable through stale ones.
        """
        stale = [
            key for key, entry in self._entries.items() if peer_id in entry[2]
        ]
        for key in stale:
            del self._entries[key]
        if stale:
            self.stats.invalidations += len(stale)
            if self.metrics is not None:
                self.metrics.count("cache_invalidations", len(stale))
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"PlanCache(entries={len(self._entries)}, {self.stats})"
