"""The no-cycle wall: an answered query dies by reference counting.

Every object a query builds — its executors, their continuations,
channels, shipped subplans and id tables — must be freed the moment the
query is answered, without CPython's cyclic collector: a reference
cycle left behind costs collector time on every query and keeps the
query's tables alive until the next collection.  Each case runs a
seeded workload under one execution strategy with the collector off,
then checks that a collection finds nothing and that no executor
outlived the run.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from functools import partial

import pytest

from repro.peers.base import Peer
from repro.systems import AdhocSystem
from repro.workloads import PAPER_QUERY, adhoc_scenario

from ..difftest.harness import build_adhoc, build_hybrid, make_workload

#: seed 5 mixes the layouts: its plans have three-way joins (streamed
#: through a two-stage cascade) and ship subplans to P2, the peer the
#: crash cases fail
SEED = 5
#: virtual time after submission at which the crashed peer goes down:
#: its subplan has been shipped, its answer has not come back
CRASH_AT = 1.0


@pytest.fixture
def built(monkeypatch):
    """Every executor :meth:`Peer.plan_executor` builds (weakly), and
    the coordinator attempts per query id."""
    executors: weakref.WeakSet = weakref.WeakSet()
    attempts: Counter = Counter()
    plan_executor = Peer.plan_executor

    def tracked(peer, plan, on_complete, **options):
        executor = plan_executor(peer, plan, on_complete, **options)
        executors.add(executor)
        if options.get("query") is not None:
            attempts[executor.query_id] += 1
        return executor

    monkeypatch.setattr(Peer, "plan_executor", tracked)
    return executors, attempts


def run_queries(system, workload, limit=None, crash=None) -> None:
    """Ask every workload query through the first peer, one at a time,
    each to quiescence; ``crash`` fails that peer mid-flight."""
    network = system.network
    for text in workload.queries:
        system.submit(workload.peer_ids[0], text, limit=limit)
        if crash is not None and not network.is_down(crash):
            network.call_later(CRASH_AT, partial(network.fail_peer, crash))
        system.run()


def assert_freed_by_refcount(built, run, warm_up=None) -> None:
    """Warm up (``run`` itself by default), then ``run`` with the
    collector off: no executor may survive it and a collection after
    it must find nothing."""
    executors, _ = built
    (warm_up or run)()
    gc.collect()
    gc.disable()
    try:
        run()
        survivors = len(executors)
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        garbage = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == 0, (
        f"{found} objects in reference cycles after the queries: "
        f"{garbage.most_common(12)}"
    )
    assert survivors == 0, f"{survivors} executors outlived their queries"


STRATEGIES = {
    "gather": {},
    "pipelined": {"pipelined_execution": True},
    "chunked-stream": {"stream_chunk_rows": 8},
    "query-shipping": {"use_shipping": True},
    "cost-based": {"cost_based": True},
    "monitored": {"monitor_channels": True},
    "uncached": {"cache_enabled": False},
}


@pytest.mark.parametrize("options", STRATEGIES.values(), ids=list(STRATEGIES))
def test_hybrid_strategy_frees_by_refcount(built, options):
    workload = make_workload(SEED, peers=4)
    system = build_hybrid(workload, **options)
    assert_freed_by_refcount(built, partial(run_queries, system, workload))


def test_adhoc_gather_frees_by_refcount(built):
    workload = make_workload(SEED, peers=4)
    system = build_adhoc(workload)
    assert_freed_by_refcount(built, partial(run_queries, system, workload))


def test_adhoc_delegation_frees_by_refcount(built):
    """Figure 7: P1 cannot fill every hole itself and delegates the
    partial plan; the peer that completes it executes and reports."""
    system = AdhocSystem.from_scenario(adhoc_scenario())
    assert_freed_by_refcount(built, partial(system.query, "P1", PAPER_QUERY))
    assert system.network.metrics.messages_by_kind["DelegatedResult"] > 0


def test_topk_cancel_frees_by_refcount(built):
    workload = make_workload(SEED, peers=4)
    system = build_hybrid(workload, topk_cancel=True)
    assert_freed_by_refcount(built, partial(run_queries, system, workload, limit=2))
    assert system.network.metrics.topk_cancels > 0


@pytest.mark.parametrize("policy", ["discard", "phased"])
def test_replan_after_crash_frees_by_refcount(built, policy):
    workload = make_workload(SEED, peers=4)
    system = build_hybrid(workload, failure_policy=policy)
    assert_freed_by_refcount(
        built,
        partial(run_queries, system, workload, crash="P2"),
        warm_up=partial(run_queries, system, workload),
    )
    assert max(built[1].values()) > 1, "the crash caused no replan"
