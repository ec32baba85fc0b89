"""Churn-scoped cache invalidation driven by live updates, end to end.

The satellite-4 hazard, pinned at the protocol level: a coordinator
holds a compiled plan whose subqueries were rewritten against a peer's
*old* view definition.  When that peer redefines its views, the
resulting advertisement delta must evict every such plan at every
holder — otherwise a raced stale annotation (same fingerprint, old
routing) would be served the outdated rewrite.
"""

from repro.livedata import LiveDataDriver, covering_view_text
from repro.livedata.updates import DeleteTriple, RedefineViews, UpdateBatch
from repro.rql.evaluator import query as centralized_query
from tests.difftest.harness import build_adhoc, build_hybrid, make_workload
from tests.difftest.live_harness import merged_current


class _OneShot:
    """A minimal single-batch injector reusing the driver machinery."""

    def __init__(self, system, batch):
        class _Stream:
            revisions = [[batch]]

            def all_batches(self):
                return [batch]

        self.driver = LiveDataDriver(system, _Stream())

    def fire(self):
        self.driver.inject(0)


def _populated(workload, peer_id):
    schema = workload.synthetic.schema
    base = workload.bases[peer_id]
    return sorted(
        (
            prop
            for prop in schema.properties
            if next(base.triples(None, prop, None), None) is not None
        ),
        key=lambda u: u.value,
    )


def _redefinition_batch(workload, peer_id, revision=1):
    """A footprint-*changing* redefinition: empty one populated property
    and redefine views to cover the survivors.  (A same-footprint
    redefinition is deliberately silent — footprint economy — so the
    hazard only arises when a delta actually flows.)"""
    populated = _populated(workload, peer_id)
    assert len(populated) >= 2, f"{peer_id} too sparse for this scenario"
    victim, survivors = populated[0], populated[1:]
    deletes = tuple(
        DeleteTriple(t)
        for t in workload.bases[peer_id].triples(None, victim, None)
    )
    text = covering_view_text(workload.synthetic.schema, survivors)
    return UpdateBatch(
        peer_id, revision, deletes + (RedefineViews((text,)),)
    )


def test_view_redefinition_evicts_plans_naming_the_peer_adhoc():
    workload = make_workload(1)
    system = build_adhoc(workload)
    coordinator = system.peers["P1"]
    assert coordinator.plan_cache is not None
    # warm the plan cache with a query routed through P2's data
    for text in workload.queries:
        try:
            system.query("P1", text)
        except Exception:
            pass
    planned_peers = {
        peer for entry in coordinator.plan_cache._entries.values()
        for peer in entry[1]
    }
    assert planned_peers, "no plans cached; scenario is vacuous"
    target = next(
        p
        for p in sorted(planned_peers)
        if len(_populated(workload, p)) >= 2
    )
    before = coordinator.plan_cache.stats.invalidations
    shot = _OneShot(system, _redefinition_batch(workload, target))
    shot.fire()
    system.run()
    assert coordinator.plan_cache.stats.invalidations > before
    assert not any(
        target in entry[1]
        for entry in coordinator.plan_cache._entries.values()
    ), f"a plan naming {target} survived its view redefinition"
    # and the system still answers correctly afterwards
    for text in workload.queries:
        try:
            actual = system.query("P1", text)
        except Exception as exc:
            assert "no relevant peers" in str(exc)
            continue
        expected = centralized_query(
            text,
            merged_current(system, workload.peer_ids),
            workload.synthetic.schema,
        ).distinct()
        assert actual == expected


def test_own_view_redefinition_evicts_own_plans_hybrid():
    workload = make_workload(1)
    system = build_hybrid(workload)
    coordinator = system.peers["P1"]
    assert coordinator.plan_cache is not None
    for text in workload.queries:
        try:
            system.query("P1", text)
        except Exception:
            pass
    if not any(
        "P1" in entry[1] for entry in coordinator.plan_cache._entries.values()
    ):
        return  # no plan names P1 under this seed; covered by adhoc twin
    shot = _OneShot(system, _redefinition_batch(workload, "P1"))
    shot.fire()
    system.run()
    assert not any(
        "P1" in entry[1] for entry in coordinator.plan_cache._entries.values()
    )


def _warm(system, workload, coordinator="P1"):
    for text in workload.queries:
        try:
            system.query(coordinator, text)
        except Exception:
            pass


def _recording_deltas(monkeypatch, peer):
    """Every AdvertiseDelta message ``peer`` handles, in arrival order."""
    seen = []
    handle = peer.handle_AdvertiseDelta

    def record(message):
        seen.append(message)
        handle(message)

    monkeypatch.setattr(peer, "handle_AdvertiseDelta", record)
    return seen


def test_duplicated_delta_keeps_cached_plans_adhoc(monkeypatch):
    """A second copy of one AdvertiseDelta patches nothing, so the
    plans naming its sender — recompiled since the first copy — stay."""
    workload = make_workload(1)
    system = build_adhoc(workload)
    coordinator = system.peers["P1"]
    _warm(system, workload)
    cache = coordinator.plan_cache
    planned = {peer for entry in cache._entries.values() for peer in entry[1]}
    target = next(
        p for p in sorted(planned)
        if p != "P1" and len(_populated(workload, p)) >= 2
    )
    seen = _recording_deltas(monkeypatch, coordinator)
    _OneShot(system, _redefinition_batch(workload, target)).fire()
    system.run()
    assert [m.payload.peer_id for m in seen] == [target]
    _warm(system, workload)
    assert any(target in entry[1] for entry in cache._entries.values()), (
        "no plan names the sender after re-warming; scenario is vacuous"
    )
    entries = list(cache._entries)
    before = system.network.metrics.cache_invalidations
    coordinator.receive(seen[0], system.network)
    assert list(cache._entries) == entries
    assert system.network.metrics.cache_invalidations == before


def test_duplicated_delta_keeps_routing_cache_hybrid(monkeypatch):
    """The super-peer refiles the equal advertisement a duplicate
    patches to, which drops no routing-cache entry."""
    workload = make_workload(1)
    system = build_hybrid(workload)
    super_peer = system.super_peers["SP"]
    seen = _recording_deltas(monkeypatch, super_peer)
    _OneShot(system, _redefinition_batch(workload, "P2")).fire()
    system.run()
    assert [m.payload.peer_id for m in seen] == ["P2"]
    _warm(system, workload)
    before = system.network.metrics.cache_invalidations
    hits = system.network.metrics.cache_hits
    super_peer.receive(seen[0], system.network)
    _warm(system, workload)
    assert system.network.metrics.cache_invalidations == before
    assert system.network.metrics.cache_hits > hits
