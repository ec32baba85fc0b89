"""The no-cycle wall: an answered query, and a dropped deployment, die
by reference counting.

Every object a query builds — its executors, their continuations,
channels, shipped subplans and id tables — must be freed the moment the
query is answered, without CPython's cyclic collector: a reference
cycle left behind costs collector time on every query and keeps the
query's tables alive until the next collection.  Each query case runs a
seeded workload under one execution strategy with the collector off,
then checks that a collection finds nothing and that no executor
outlived the run.

The same holds one level up.  Ownership goes one way — the network owns
its transport and its nodes, a peer owns its coordinator, SON registry,
scheduler and failure detector, a tracer's collector owns its spans —
and every reference back to an owner is weak.  So the last reference
to a deployment frees all of it at once: each deployment case answers
queries, drops the deployment with the collector off, and checks that
its network is already gone and that a collection finds nothing.  A
peer that outlives its network says so with a ``PeerError``.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from functools import partial

import pytest

from repro.config import AdmissionControl
from repro.errors import PeerError
from repro.livedata import LiveDataDriver, UpdateStream
from repro.peers.base import Peer
from repro.resilience.harness import heartbeat_round
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
    "chunked-stream": {"batch_size": 8, "stream_interval": 2.0},
    "cost-based": {"cost_based": True},
    "monitored": {"monitor_interval": 15.0},
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


# ----------------------------------------------------------------------
# whole deployments
# ----------------------------------------------------------------------
# each builder returns what a holder of the deployment keeps: the
# system first
def answered_hybrid(workload):
    system = build_hybrid(workload)
    run_queries(system, workload)
    return (system,)


def answered_resilient_hybrid(workload):
    system = build_hybrid(workload)
    system.enable_resilience()
    heartbeat_round(system)
    run_queries(system, workload)
    heartbeat_round(system)
    system.run()
    return (system,)


def answered_scheduled_hybrid(workload):
    system = build_hybrid(workload)
    system.enable_admission(AdmissionControl(max_concurrent=1, max_queued=4))
    system.enable_fair_scheduling()
    for text in workload.queries:  # all in flight at once: some park
        system.submit(workload.peer_ids[0], text)
    system.run()
    return (system,)


def answered_updated_hybrid(workload):
    """After one live-data revision, which the driver injected."""
    system = build_hybrid(workload)
    stream = UpdateStream(
        workload.synthetic.schema, workload.bases, seed=SEED, revisions=1, rate=0.2
    )
    driver = LiveDataDriver(system, stream)
    driver.inject(0)
    system.run()
    assert driver.acked(1)
    run_queries(system, workload)
    return system, driver


def answered_adhoc(workload):
    system = build_adhoc(workload)
    run_queries(system, workload)
    return (system,)


DEPLOYMENTS = {
    "hybrid": answered_hybrid,
    "hybrid-resilient": answered_resilient_hybrid,
    "hybrid-admission-fair": answered_scheduled_hybrid,
    "hybrid-updated": answered_updated_hybrid,
    "adhoc": answered_adhoc,
}


def assert_drop_frees_by_refcount(held) -> None:
    """Dropping ``held``, the last reference to a deployment (its
    system first), frees its network at once and leaves no cyclic
    garbage."""
    network = weakref.ref(held[0].network)
    gc.collect()
    gc.disable()
    try:
        del held[:]
        outlived = network() is not None
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        garbage = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not outlived, "the network outlived its deployment"
    assert found == 0, (
        f"{found} objects in reference cycles after the drop: "
        f"{garbage.most_common(12)}"
    )


@pytest.mark.parametrize("answered", DEPLOYMENTS.values(), ids=list(DEPLOYMENTS))
def test_dropped_deployment_frees_by_refcount(answered):
    """The deployment answered its queries (the warm state: caches,
    histograms, spans, remembered answers); dropping the last reference
    to it frees its network at once, and leaves no cyclic garbage."""
    assert_drop_frees_by_refcount(list(answered(make_workload(SEED, peers=4))))


def test_deployment_dropped_mid_query_frees_by_refcount():
    """Dropped with a query in flight — messages queued, executors
    waiting on channels — the deployment still goes at once: a queued
    message holds its network weakly, and so does an executor."""
    workload = make_workload(SEED, peers=4)
    system = build_hybrid(workload)
    system.submit(workload.peer_ids[0], workload.queries[0])
    system.network.run(until=system.network.now + 2)
    assert system.network.pending_events(), "the query finished before the drop"
    held = [system]
    del system
    assert_drop_frees_by_refcount(held)


def test_a_peer_that_outlives_its_network_raises_peer_error():
    (system,) = answered_hybrid(make_workload(SEED, peers=4))
    peer = system.peers["P1"]
    del system
    assert peer.network is None
    with pytest.raises(PeerError, match="outlived its network"):
        peer.send("P2", object())
