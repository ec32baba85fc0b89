"""A node's one advertisement store, across a crash.

What a role files in its :class:`~repro.peers.son.SONRegistry` is what
its durable log replays into a fresh one: every SON's registration of a
multi-SON member, and quarantine verdicts *with* their reversals —
whichever role took them, by whichever path.  The oracle is the
canonical state digest of the uncrashed twin.
"""

import pytest

from repro.config import PeerConfig
from repro.durability import MemoryStore, PeerStateStore, peer_state_digest
from repro.net import Network
from repro.peers import SuperPeer
from repro.rdf import Graph, TYPE
from repro.resilience import ResilienceConfig
from repro.systems import HybridSystem
from repro.systems.hybrid import HybridPeer
from repro.workloads.paper import DATA, N1, paper_schema
from tests.integration.test_multi_son import MU, music_schema

QUARANTINING = PeerConfig(resilience=ResilienceConfig.default(0))


def _digest(node) -> str:
    """The membership-relevant state of a live node, digested the way a
    recovered one is."""
    return peer_state_digest(
        None, (), None, node.sons.advertisements(), node.sons.quarantine.peers
    )


def _two_son_graphs():
    n1_graph, music_graph = Graph(), Graph()
    n1_graph.add(DATA.mx, TYPE, N1.C1)
    n1_graph.add(DATA.my, TYPE, N1.C2)
    n1_graph.add(DATA.mx, N1.prop1, DATA.my)
    music_graph.add(DATA.artist1, TYPE, MU.Artist)
    music_graph.add(DATA.album1, TYPE, MU.Album)
    music_graph.add(DATA.artist1, MU.recorded, DATA.album1)
    return n1_graph, music_graph


class TestMultiSONRecovery:
    """``both`` belongs to two SONs one super-peer manages; a holder
    must come back knowing both registrations, not the last one logged."""

    @pytest.fixture
    def system(self):
        system = HybridSystem(paper_schema())
        super_peer = system.add_super_peer(
            "SP", schemas=[paper_schema(), music_schema()]
        )
        super_peer.attach_durability(PeerStateStore(MemoryStore(), "SP"))
        witness = system.add_peer("witness", Graph(), "SP")
        witness.attach_durability(PeerStateStore(MemoryStore(), "witness"))
        n1_graph, music_graph = _two_son_graphs()
        system.add_peer(
            "both", n1_graph, "SP", secondary=[(music_graph, music_schema(), "SP")]
        )
        system.run()
        return system

    def test_super_peer_recovers_every_registration(self, system):
        live = system.super_peers["SP"]
        assert live.sons.sons_of("both") == sorted([N1.uri, MU.uri])
        recovered = live.state_store.recover()
        reborn = SuperPeer("SP", schemas=[paper_schema(), music_schema()])
        reborn.sons.restore_from(recovered)
        assert reborn.sons.sons_of("both") == live.sons.sons_of("both")
        assert recovered.digest() == _digest(reborn) == _digest(live)

    def test_simple_peer_recovers_both_advertisements(self, system):
        live = system.peers["witness"]
        for advertisement in system.peers["both"].own_advertisements():
            live.remember_advertisement(advertisement)
        assert len(live.sons) == 2
        recovered = live.state_store.recover()
        reborn = HybridPeer("witness", live.base, home_super_peer="SP")
        reborn.sons.restore_from(recovered)
        assert len(reborn.sons) == 2
        assert recovered.digest() == _digest(reborn) == _digest(live)

    def test_goodbye_drops_every_son(self, system):
        live = system.super_peers["SP"]
        system.peers["both"].leave()
        system.run()
        assert live.sons.sons_of("both") == []
        recovered = live.state_store.recover()
        assert not [key for key in recovered.advertisements if key[1] == "both"]
        assert recovered.digest() == _digest(live)


def _super_peer(network):
    node = SuperPeer("N", schemas=[paper_schema()], config=QUARANTINING)
    node.join(network)
    return node


def _simple_peer(network):
    SuperPeer("SP", schemas=[paper_schema()]).join(network)
    node = HybridPeer("N", None, home_super_peer="SP", config=QUARANTINING)
    node.join(network)
    return node


@pytest.mark.parametrize("role", [_super_peer, _simple_peer])
class TestVerdictReversal:
    """A quarantine lifted before the crash stays lifted after it."""

    @pytest.fixture
    def node(self, role):
        network = Network(seed=0)
        node = role(network)
        node.attach_durability(PeerStateStore(MemoryStore(), "N"))
        node.sons.suspect("P2")
        assert node.state_store.recover().quarantined == {"P2"}
        return node

    def test_restore_is_logged(self, node):
        assert node.sons.restore("P2")
        assert node.state_store.recover().quarantined == set()

    def test_liveness_recovery_is_logged(self, node):
        node.network.fail_peer("P2")
        node.network.recover_peer("P2")
        assert not node.sons.quarantine.is_quarantined("P2")
        assert node.state_store.recover().quarantined == set()
