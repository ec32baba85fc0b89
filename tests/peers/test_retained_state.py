"""What finished queries leave behind on a peer.

A 16-peer hybrid deployment plays queries around two update revisions.
Under the default fire-and-forget configuration nothing per query may
stay: no shipment kept for replay, no answer kept for a resubmit, and
the plan cache holds plans of one statistics version only (the shared
statistics move on as each query's answers arrive, so that is the
version of the peer's latest compile).  Under
``ResilienceConfig.default`` roots retransmit and clients resubmit, so
both are kept — and a retransmitted shipment is replayed verbatim.
"""

from repro.config import PeerConfig
from repro.livedata import LiveDataDriver, UpdateStream
from repro.net import Message
from repro.resilience import ResilienceConfig
from repro.scenario import Query, Scenario, Update, play
from repro.systems import HybridSystem
from repro.transport.codec import encode_message
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import random_queries
from repro.workloads.schema_gen import generate_schema

SEED = 4
PEERS = [f"P{i}" for i in range(1, 17)]
#: queries asked before, between and after the two revisions
ROUND = 12


def _played(resilient: bool):
    """The settled deployment after the scenario, and every
    ``SubPlanPacket`` its peers received (with the root it came from)."""
    synthetic = generate_schema(chain_length=4, noise_properties=1, seed=SEED)
    bases = generate_bases(
        synthetic, PEERS, Distribution.MIXED,
        statements_per_segment=8, shared_pool=6, seed=SEED,
    ).bases
    system = HybridSystem(synthetic.schema, seed=SEED, config=PeerConfig())
    system.add_super_peer("SP")
    for peer_id in PEERS:
        system.add_peer(peer_id, bases[peer_id].copy(), "SP")
    system.run()
    if resilient:
        system.enable_resilience(ResilienceConfig.default(SEED))
    shipped = []
    for peer in system.peers.values():

        def spy(message, handle=peer.handle_SubPlanPacket):
            shipped.append(message)
            handle(message)

        peer.handle_SubPlanPacket = spy
    texts = random_queries(synthetic, 6, max_length=3, seed=SEED)
    stream = UpdateStream(synthetic.schema, bases, seed=SEED, revisions=2, rate=0.1)
    events = []
    for index in range(3 * ROUND):
        if index and not index % ROUND:
            events.append(Update(index // ROUND))
        events.append(Query(PEERS[(5 * index) % len(PEERS)], texts[index % len(texts)]))
    driver = LiveDataDriver(system, stream)
    outcomes = list(play(Scenario(tuple(events)), system, updates=driver))
    assert len(outcomes) == 3 * ROUND and all(o.answered for o in outcomes)
    assert driver.acked(2)
    return system, shipped


def test_fire_and_forget_queries_leave_nothing_behind():
    system, shipped = _played(resilient=False)
    assert shipped and not any(m.payload.retransmits for m in shipped)
    loads = {peer_id: peer.load() for peer_id, peer in system.peers.items()}
    assert all(load["replay_entries"] == 0 for load in loads.values())
    assert all(load["completed_queries"] == 0 for load in loads.values())
    assert sum(load["plan_cache_entries"] for load in loads.values()) > 0
    for peer in system.peers.values():
        # one statistics version, the one the peer last compiled under:
        # no plan of an older one survives that compile
        assert peer.plan_cache.version <= peer.statistics.version
        assert len(peer.plan_cache) == loads[peer.peer_id]["plan_cache_entries"]
        assert loads[peer.peer_id]["dictionary_terms"] == len(peer.dictionary)


def test_resilient_roots_keep_what_a_retransmit_or_resubmit_uses():
    system, shipped = _played(resilient=True)
    loads = {peer_id: peer.load() for peer_id, peer in system.peers.items()}
    assert sum(load["replay_entries"] for load in loads.values()) > 0
    assert sum(load["completed_queries"] for load in loads.values()) > 0

    # retransmit one answered shipment: the very same packets come back
    message = next(
        m for m in shipped
        if m.payload.retransmits
        and m.payload.channel_id in system.peers[m.dst]._subplan_replay
    )
    serving = system.peers[message.dst]
    kept = serving._subplan_replay[message.payload.channel_id]
    replies = []
    root = system.peers[message.src]
    handle = root.handle_DataPacket
    root.handle_DataPacket = lambda m: (replies.append(m.payload), handle(m))
    system.network.send(Message(message.src, message.dst, message.payload))
    system.run()
    assert [encode_message(Message(message.dst, message.src, p)) for p in replies] == [
        encode_message(Message(message.dst, message.src, p)) for p in kept
    ]
