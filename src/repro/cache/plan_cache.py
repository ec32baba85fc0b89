"""The plan cache: compiled + optimised plans, layered on routing.

Plan compilation (Section 2.4's recursion plus Figure 4's algebraic
rewrites) is deterministic in three inputs: the query pattern, its
routing annotation, and the optimiser's statistics.  The cache keys on
exactly those — the pattern and the annotations of each of its path
patterns, under one statistics version — so a cached plan is only ever
served when a fresh compile would reproduce it bit for bit.  A lookup
only ever asks under the current version, so the cache holds that one:
a plan compiled under another drops every older entry.

A compiled plan embeds the query's actual labels and variables (its
scans become wire subqueries), so an alpha-renamed or reordered query
is a different key and a miss, as it is in the routing cache.  Plans
are immutable once built; sharing one across executions is safe.

A compiled plan also *names* peers (its scans are addressed wire
subqueries), so each entry remembers the peer set its plan touches and
:meth:`PlanCache.invalidate_peer` drops exactly those entries.  The
live data plane relies on this: when a peer's advertisement changes —
a view redefinition above all — any cached plan naming it may carry
rewrites against the *old* view.  A racing stale annotation (obtained
before the change) would otherwise re-key to the old annotations and
be served that stale plan.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..core.algebra import PlanNode
from ..core.annotations import AnnotatedQueryPattern
from .routing_cache import CacheStats


def _key(annotated: AnnotatedQueryPattern) -> Tuple:
    """The pattern plus the annotations of each of its path patterns."""
    pattern = annotated.query_pattern
    return (pattern, tuple(annotated.annotations(p) for p in pattern.patterns))


class PlanCache:
    """LRU cache of compiled plans keyed by routing state, all under
    one statistics version (:attr:`version`).

    Args:
        max_entries: LRU bound; plan reuse is an optimisation, eviction
            only costs a recompile.
    """

    def __init__(self, max_entries: int = 512):
        self.max_entries = max_entries
        self.stats = CacheStats()
        self.metrics = None  # optionally a MetricSet, via bind_metrics()
        #: the statistics version every entry was compiled under
        self.version = 0
        #: key → (plan, peers the plan names)
        self._entries: "OrderedDict[Tuple, Tuple[PlanNode, frozenset]]" = OrderedDict()

    def bind_metrics(self, metrics) -> None:
        self.metrics = metrics

    def get(
        self, annotated: AnnotatedQueryPattern, version: int = 0
    ) -> Optional[PlanNode]:
        """A plan a fresh compile would reproduce, or ``None``."""
        key = _key(annotated)
        entry = self._entries.get(key) if version == self.version else None
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if self.metrics is not None:
                self.metrics.count("cache_hits")
            return entry[0]
        self.stats.misses += 1
        if self.metrics is not None:
            self.metrics.count("cache_misses")
        return None

    def put(
        self, annotated: AnnotatedQueryPattern, plan: PlanNode, version: int = 0
    ) -> None:
        if version != self.version:
            # the statistics moved on: no lookup asks for the old plans
            self._entries.clear()
            self.version = version
        key = _key(annotated)
        self._entries[key] = (plan, frozenset(annotated.all_peers()))
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def invalidate_peer(self, peer_id: str) -> int:
        """Drop every cached plan that names ``peer_id``.

        Called when the peer's advertisement moves (delta or full
        refresh, view redefinitions included) or it departs: its cached
        plans may address subqueries rewritten against state the peer
        no longer has.  Keying on the annotations covers *fresh*
        ones; this covers plans reachable through stale ones.
        """
        stale = [
            key for key, entry in self._entries.items() if peer_id in entry[1]
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
