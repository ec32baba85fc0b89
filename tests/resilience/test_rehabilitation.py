"""Rehabilitation at the super-peer: lifting a quarantine must be as
loud as imposing one — routing-cache scope invalidated, the verdict
logged — and a rejoin-flagged advertisement must lift quarantines at
the SON's other members too."""

import pytest

from repro.durability import MemoryStore, PeerStateStore
from repro.peers.protocol import Advertise
from repro.resilience import ResilienceConfig
from repro.rvl import ActiveSchema
from repro.systems import HybridSystem
from repro.workloads.paper import PAPER_QUERY, paper_peer_bases, paper_schema


@pytest.fixture
def system():
    system = HybridSystem(paper_schema(), seed=0)
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    system.run()
    system.enable_resilience(ResilienceConfig.default(0))
    return system


def test_restore_invalidates_routing_cache_scope(system):
    """Symmetry with suspicion: entries computed while the peer was
    excluded must not linger once it is rehabilitated."""
    super_peer = system.super_peers["SP1"]
    system.query("P1", PAPER_QUERY)  # populate the SP's routing cache
    metrics = system.network.metrics
    super_peer.sons.suspect("P2")
    invalidations_after_suspect = metrics.cache_invalidations
    assert invalidations_after_suspect > 0
    system.query("P1", PAPER_QUERY)  # re-populate during the quarantine
    super_peer.sons.restore("P2")
    assert not super_peer.sons.quarantine.is_quarantined("P2")
    assert metrics.cache_invalidations > invalidations_after_suspect


def test_restore_of_unquarantined_peer_is_silent(system):
    super_peer = system.super_peers["SP1"]
    system.query("P1", PAPER_QUERY)
    before = system.network.metrics.cache_invalidations
    super_peer.sons.restore("P2")  # never suspected
    assert system.network.metrics.cache_invalidations == before


def test_verdicts_are_logged_durably(system):
    super_peer = system.super_peers["SP1"]
    store = PeerStateStore(MemoryStore(), "SP1")
    super_peer.attach_durability(store)
    super_peer.sons.suspect("P2")
    assert store.recover().quarantined == {"P2"}
    super_peer.sons.restore("P2")
    assert store.recover().quarantined == set()


def test_liveness_recovery_rehabilitates(system):
    """A ``recover_peer`` control event (the sim's out-of-band liveness
    plane) lifts the quarantine through ``SONRegistry.restore``."""
    super_peer = system.super_peers["SP1"]
    system.network.fail_peer("P2")
    super_peer.sons.suspect("P2")
    assert super_peer.sons.quarantine.is_quarantined("P2")
    system.network.recover_peer("P2")
    assert not super_peer.sons.quarantine.is_quarantined("P2")


def test_rejoin_advertisement_rebroadcasts_to_son_members(system):
    """A rejoin-flagged Advertise at the super-peer is rebroadcast to
    the SON's other members, lifting their local quarantines without
    any out-of-band liveness plane (live-transport compatible)."""
    schema = paper_schema()
    coordinator = system.peers["P1"]
    witness = system.peers["P3"]
    coordinator.sons.quarantine.record_failure("P2")
    witness.sons.quarantine.record_failure("P2")
    advertisement = ActiveSchema.from_base(
        paper_peer_bases()["P2"], schema, "P2"
    )
    rejoiner = system.peers["P2"]
    rejoiner.send("SP1", Advertise(advertisement, rejoin=True))
    system.run()
    assert not coordinator.sons.quarantine.is_quarantined("P2")
    assert not witness.sons.quarantine.is_quarantined("P2")


def test_plain_advertisement_does_not_rebroadcast(system):
    """Initial joins never rebroadcast — the seed protocol byte flow is
    untouched when nobody rejoins."""
    metrics = system.network.metrics
    before = dict(metrics.messages_by_kind)
    schema = paper_schema()
    advertisement = ActiveSchema.from_base(
        paper_peer_bases()["P2"], schema, "P2"
    )
    system.peers["P2"].send("SP1", Advertise(advertisement))
    system.run()
    sent = metrics.messages_by_kind["Advertise"] - before.get("Advertise", 0)
    assert sent == 1  # only the push itself, no fan-out
