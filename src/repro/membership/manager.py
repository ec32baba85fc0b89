"""The membership manager: lifecycle transitions of a hybrid system.

:class:`MembershipManager` owns the durable stores of a simulated
deployment and drives every lifecycle transition through the same code
path the live launcher uses (a :class:`~repro.scenario.Scenario`'s
``Join`` / ``Leave`` / ``Crash`` / ``Restart`` events, played in-sim,
come here):

- **attach**: every peer (simple and super) gets a
  :class:`~repro.durability.state.PeerStateStore` over a backing store
  from ``store_factory`` (in-memory by default; pass a
  :class:`~repro.durability.store.FileStore` factory for on-disk), and
  every simple peer writes its first snapshot.
- **join**: a fresh peer bootstraps from the deployment (its home
  super-peer is the seed), advertises, inherits the system's
  resilience/admission/scheduling config and writes its first snapshot.
- **leave**: graceful — snapshot, ``Goodbye`` to every advertisement
  holder, then dark.
- **crash**: abrupt — no snapshot, no goodbye; in-flight subplans
  bounce and coordinators adapt.
- **rejoin**: recover from the durable store (snapshot + log replay),
  rebuild the base and remembered advertisements, re-derive the
  active-schema, then re-advertise with the ``rejoin`` flag so holders
  rehabilitate the peer and in-flight queries can replan onto it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..durability import MemoryStore, PeerStateStore
from ..peers.base import PeerBase
from ..peers.protocol import Advertise


class MembershipManager:
    """Apply membership transitions to a ``HybridSystem``."""

    def __init__(self, system, store_factory: Optional[Callable[[str], object]] = None):
        self.system = system
        self.store_factory = store_factory or (lambda peer_id: MemoryStore())
        self.stores: Dict[str, PeerStateStore] = {}

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self, peer) -> PeerStateStore:
        """Give one peer a durable store (idempotent per peer id)."""
        store = self.stores.get(peer.peer_id)
        if store is None:
            store = PeerStateStore(self.store_factory(peer.peer_id), peer.peer_id)
            self.stores[peer.peer_id] = store
        peer.attach_durability(store)
        return store

    def attach_all(self) -> None:
        """Attach every current super-peer and simple peer, and snapshot
        each simple peer: from here on any of them can crash and
        recover."""
        for super_peer in self.system.super_peers.values():
            self.attach(super_peer)
        for peer in self.system.peers.values():
            self.attach(peer)
            peer.save_durable_snapshot()

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def join(self, peer_id: str, graph, home_super_peer: str, schema=None):
        """Bootstrap a fresh peer into the running deployment."""
        peer = self.system.add_peer(peer_id, graph, home_super_peer, schema=schema)
        self.attach(peer)
        peer.save_durable_snapshot()
        return peer

    def leave(self, peer_id: str) -> None:
        """Graceful departure: snapshot + goodbyes, then dark."""
        self.system.network.emit_event("leave", peer=peer_id)
        self.system.peers[peer_id].leave()

    def crash(self, peer_id: str) -> None:
        """Abrupt failure: no snapshot, no goodbye."""
        self.system.network.emit_event("crash", peer=peer_id)
        self.system.network.fail_peer(peer_id)

    def rejoin(self, peer_id: str):
        """Crash recovery: reload durable state and re-advertise.

        The peer's volatile state (remembered advertisements, quarantine
        verdicts, routing cache) is discarded and rebuilt from the
        durable store, exactly as a restarted process would; then the
        peer re-enters the overlay with a rejoin-flagged advertisement.
        """
        peer = self.system.peers[peer_id]
        store = peer.state_store
        recovered = store.recover()
        store.log_recover()
        # note: no channel-id epoch bump here — the sim reuses the peer
        # object, whose channel counter already continues past the crash;
        # a restarted OS process mints from 1 and must salt instead
        if recovered.graph is not None and peer.base is not None:
            peer.base = PeerBase(recovered.graph, peer.base.schema, recovered.views)
        peer.sons.restore_from(recovered)
        network = self.system.network
        network.recover_peer(peer_id)
        network.metrics.count("recoveries")
        network.emit_event("recovery", peer=peer_id)
        peer.rejoining = True
        try:
            for advertisement in peer.own_advertisements():
                peer.send(
                    peer._home_for(advertisement.schema_uri),
                    Advertise(advertisement, rejoin=True),
                )
        finally:
            peer.rejoining = False
        return recovered
