"""Semantic routing & plan caching with churn-driven invalidation.

SQPeer's routing step (paper Section 2.3) re-annotates every query
pattern against the active-schema registry; under the repeated-query
workloads the related work observes (query-mining P2P communities,
super-peer routing indices), that work is overwhelmingly redundant —
the same semantic pattern arrives again and again while the registry
barely moves.  This package remembers past routing and planning
decisions *without* ever serving an answer a cold run would not give:

* :mod:`~repro.cache.routing_cache` — query pattern → annotation
  cache, kept coherent with the advertisement registry.  The key is
  the pattern itself: a repeated query hits, an alpha-renamed or
  reordered one is a miss.  ``Goodbye``s and advertisement refreshes
  invalidate *only* the entries that name the affected peer or whose
  query properties the new advertisement could answer (scoped by the
  subsumption closure the routing index already computes, not
  flush-the-world).  Unanswerable patterns are cached as negative
  entries and revived the moment a relevant peer advertises.
* :mod:`~repro.cache.plan_cache` — compiled + optimised plans keyed by
  the pattern and its annotations under one statistics version,
  layered on top of the routing cache.
* :mod:`~repro.cache.coalescer` — request coalescing (singleflight):
  concurrent identical in-flight queries at a coordinator share one
  routing/planning pass and one distributed execution; followers are
  answered from the leader's completion continuation.
"""

from .coalescer import QueryCoalescer
from .plan_cache import PlanCache
from .routing_cache import CacheStats, RoutingCache

__all__ = [
    "CacheStats",
    "PlanCache",
    "QueryCoalescer",
    "RoutingCache",
]
