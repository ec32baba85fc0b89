"""Experiment routing-cache — the repro.cache subsystem.

Quantifies the caching layer the ISSUE adds on top of the paper's
routing machinery: cold per-query routing (the paper's behaviour,
``--no-cache``) vs warm cache hits on a repeated query vs a churn regime
where advertisement refreshes keep invalidating entries.  Scoped
invalidation means churn only costs the affected entries — the warm
path's advantage survives unrelated mutations.
"""

from __future__ import annotations

import time

from repro.core.routing_index import RoutingIndex
from repro.rql.pattern import SchemaPath
from repro.rvl import ActiveSchema
from repro.workloads.paper import (
    N1,
    paper_query_pattern,
    paper_schema,
)

from ._common import banner, format_table, write_report

SCHEMA = paper_schema()
PATTERN = paper_query_pattern(SCHEMA)

#: acceptance floor: a warm routing step beats a cold one by this much
MIN_WARM_SPEEDUP = 5.0


def _synthetic_advertisements(count: int):
    """Many peers, half relevant (prop1 or prop2), half not (prop3)."""
    definition1 = SCHEMA.property_def(N1.prop1)
    definition2 = SCHEMA.property_def(N1.prop2)
    definition3 = SCHEMA.property_def(N1.prop3)
    ads = []
    for i in range(count):
        if i % 2 == 0:
            path = SchemaPath(
                definition1.domain, N1.prop1, definition1.range
            ) if i % 4 == 0 else SchemaPath(
                definition2.domain, N1.prop2, definition2.range
            )
        else:
            path = SchemaPath(definition3.domain, N1.prop3, definition3.range)
        ads.append(ActiveSchema(SCHEMA.namespace.uri, [path], peer_id=f"S{i}"))
    return ads


def _filled_index(ads, use_cache: bool) -> RoutingIndex:
    index = RoutingIndex(SCHEMA, use_cache=use_cache)
    for advertisement in ads:
        index.add(advertisement)
    return index


def _refreshed_ad(n: int) -> ActiveSchema:
    """The n-th refresh: a prop1 advertiser widens its footprint with
    prop3, a genuine intensional change (unchanged re-advertises are
    no-ops and would not invalidate anything)."""
    definition1 = SCHEMA.property_def(N1.prop1)
    definition3 = SCHEMA.property_def(N1.prop3)
    paths = [
        SchemaPath(definition1.domain, N1.prop1, definition1.range),
        SchemaPath(definition3.domain, N1.prop3, definition3.range),
    ]
    return ActiveSchema(
        SCHEMA.namespace.uri, paths, peer_id=f"S{(n % 250) * 4}"
    )


def _steps_per_second(step, iterations: int) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        step()
    elapsed = time.perf_counter() - start
    return iterations / elapsed if elapsed else float("inf")


def report() -> str:
    ads = _synthetic_advertisements(1000)

    cold_index = _filled_index(ads, use_cache=False)
    cold_rate = _steps_per_second(lambda: cold_index.route(PATTERN), 50)

    warm_index = _filled_index(ads, use_cache=True)
    warm_index.route(PATTERN)  # fill the entry
    warm_rate = _steps_per_second(lambda: warm_index.route(PATTERN), 500)

    # churn regime: every routing step is preceded by a *relevant*
    # advertisement refresh (the footprint genuinely changes — an
    # unchanged re-advertise is a no-op), so the entry is invalidated
    # each time and the step pays a cold route plus the bookkeeping
    churn_index = _filled_index(ads, use_cache=True)
    refresher = iter(range(10**9))

    def churned_step():
        n = next(refresher)
        churn_index.add(_refreshed_ad(n))
        churn_index.route(PATTERN)

    churn_rate = _steps_per_second(churned_step, 50)

    speedup = warm_rate / cold_rate
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm routing only {speedup:.1f}x cold (< {MIN_WARM_SPEEDUP}x floor)"
    )
    stats = warm_index.cache.stats
    churn_stats = churn_index.cache.stats

    rows = [
        ("cold routing (no cache)", f"{cold_rate:,.0f} steps/s", "1000 advertisements"),
        ("warm routing (cache hit)", f"{warm_rate:,.0f} steps/s",
         f"hit rate {stats.hit_rate():.3f}"),
        ("churned routing (refresh each step)", f"{churn_rate:,.0f} steps/s",
         f"{churn_stats.invalidations} scoped invalidations"),
        ("warm / cold speedup", f"{speedup:,.1f}x", f">= {MIN_WARM_SPEEDUP:.0f}x required"),
        ("churned / cold", f"{churn_rate / cold_rate:,.2f}x",
         "every step recomputes + scoped bookkeeping"),
    ]
    text = banner(
        "routing-cache",
        "repro.cache — routing cache, scoped invalidation, coalescing",
        "pattern-keyed caching answers repeated queries in O(1) while "
        "churn invalidates only the entries the mutation can affect",
    ) + format_table(("regime", "throughput", "notes"), rows)
    return write_report("routing-cache", text)


def bench_routing_cold_1000(benchmark):
    index = _filled_index(_synthetic_advertisements(1000), use_cache=False)
    annotated = benchmark(index.route, PATTERN)
    assert len(annotated.all_peers()) == 500


def bench_routing_warm_1000(benchmark):
    index = _filled_index(_synthetic_advertisements(1000), use_cache=True)
    index.route(PATTERN)
    annotated = benchmark(index.route, PATTERN)
    assert len(annotated.all_peers()) == 500
    assert index.cache.stats.hits >= 1
    report()


def bench_routing_churned_1000(benchmark):
    ads = _synthetic_advertisements(1000)
    index = _filled_index(ads, use_cache=True)
    state = {"n": 0}

    def step():
        state["n"] += 1
        index.add(_refreshed_ad(state["n"]))
        return index.route(PATTERN)

    annotated = benchmark(step)
    assert len(annotated.all_peers()) == 500


def bench_cache_scoped_invalidation(benchmark):
    """Invalidation cost is scoped: departures of unannotated peers
    touch nothing."""
    index = _filled_index(_synthetic_advertisements(1000), use_cache=True)
    index.route(PATTERN)
    cache = index.cache

    def step():
        cache.on_goodbye("S1")  # prop3 peer: annotates no cached entry
        return cache

    benchmark(step)
    assert PATTERN in cache  # the entry survived every goodbye
