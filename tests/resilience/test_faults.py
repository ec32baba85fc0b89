"""Tests for fault injection (repro.resilience.faults) and its
integration with the network simulator."""

import pytest

from repro.net import Message, Network
from repro.resilience import FaultInjector, FaultPlan
from repro.scenario import Crash, Restart, Scenario, play
from repro.systems import HybridSystem
from repro.workloads.paper import paper_peer_bases, paper_schema


class Echo:
    def __init__(self, peer_id):
        self.peer_id = peer_id
        self.received = []

    def receive(self, message, network):
        self.received.append((network.now, message))


def pair(plan=None, seed=7):
    network = Network(seed=seed, default_latency=1.0, default_cost_per_byte=0.0)
    a, b = Echo("A"), Echo("B")
    network.register(a)
    network.register(b)
    if plan is not None:
        network.install_faults(plan)
    return network, a, b


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5).validate()
        with pytest.raises(ValueError):
            FaultPlan(jitter=-1.0).validate()
        FaultPlan(drop_rate=0.5, duplicate_rate=0.1).validate()

    def test_injector_decisions_replay(self):
        plan = FaultPlan(seed=3, drop_rate=0.3, duplicate_rate=0.3, jitter=2.0)
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        decisions = [
            (first.drops(None), first.duplicates(None), first.extra_delay())
            for _ in range(50)
        ]
        replayed = [
            (second.drops(None), second.duplicates(None), second.extra_delay())
            for _ in range(50)
        ]
        assert decisions == replayed
        assert first.dropped > 0 and first.duplicated > 0

    def test_partition_window(self):
        network, _, _ = pair()
        network.call_later(10.0, lambda: network.partition({"A"}, {"B"}))
        network.call_later(20.0, lambda: network.heal({"A"}, {"B"}))
        cuts = {}
        for when in (5.0, 10.0, 15.0, 20.0):
            network.call_later(when, lambda when=when: cuts.update({when: (
                network.severed("A", "B"), network.severed("B", "A"),
                network.severed("A", "C"),
            )}))
        network.run()
        assert not cuts[5.0][0]
        assert cuts[10.0][0]
        assert cuts[15.0][1]  # symmetric
        assert not cuts[20.0][0]
        assert not cuts[15.0][2]


class TestNetworkFaults:
    def test_loss_drops_messages_and_meters_them(self):
        network, _, b = pair(FaultPlan(seed=1, drop_rate=1.0))
        network.send(Message("A", "B", "x"))
        network.run()
        assert b.received == []
        assert network.metrics.dropped_messages == 1

    def test_duplication_delivers_twice(self):
        network, _, b = pair(FaultPlan(seed=1, duplicate_rate=1.0))
        network.send(Message("A", "B", "x"))
        network.run()
        assert len(b.received) == 2
        assert network.metrics.duplicated_messages == 1

    def test_jitter_delays_delivery(self):
        network, _, b = pair(FaultPlan(seed=1, jitter=5.0))
        network.send(Message("A", "B", "x"))
        network.run()
        (when, _), = b.received
        assert 1.0 <= when <= 6.0

    def test_partition_silently_cuts_link(self):
        network, a, b = pair(FaultPlan())
        network.partition({"A"}, {"B"})
        network.call_later(10.0, lambda: network.heal({"A"}, {"B"}))
        network.send(Message("A", "B", "x"))
        network.run()
        assert b.received == []
        assert a.received == []  # no omniscient bounce
        # after the window the link heals
        network.call_later(12.0 - network.now, lambda: None)
        network.run()
        network.send(Message("A", "B", "y"))
        network.run()
        assert len(b.received) == 1

    def test_crash_schedule_fires(self):
        system = HybridSystem(paper_schema())
        system.add_super_peer("SP1")
        for peer_id, graph in paper_peer_bases().items():
            system.add_peer(peer_id, graph, "SP1")
        network = system.network
        transitions = []
        network.add_liveness_listener(
            lambda peer_id, alive: transitions.append((network.now, peer_id, alive))
        )
        scenario = Scenario((Crash("P2", at=5.0), Restart("P2", at=9.0)))
        assert list(play(scenario, system)) == []
        assert transitions == [(5.0, "P2", False), (9.0, "P2", True)]
        assert not network.is_down("P2")

    def test_down_peer_drops_silently_without_omniscience(self):
        network, a, b = pair(FaultPlan())
        network.fail_peer("B")
        network.send(Message("A", "B", "x"))
        network.run()
        assert b.received == []
        assert a.received == []  # sender not told: must time out instead
        assert network.metrics.dropped_messages == 1

    def test_omniscient_plan_keeps_legacy_bounces(self):
        network, a, b = pair(FaultPlan(omniscient=True))
        network.fail_peer("B")
        network.send(Message("A", "B", "x"))
        network.run()
        assert b.received == []
        assert len(a.received) == 1  # DeliveryFailure bounce

    def test_bounces_are_metered(self):
        network, a, _ = pair(FaultPlan(omniscient=True))
        network.fail_peer("B")
        before = network.metrics.messages_total
        network.send(Message("A", "B", "x"))
        network.run()
        # the request AND its DeliveryFailure bounce both count
        assert network.metrics.messages_total == before + 2

    def test_same_seed_same_delivery_trace(self):
        def trace():
            network, _, b = pair(
                FaultPlan(seed=5, drop_rate=0.3, duplicate_rate=0.2, jitter=1.0)
            )
            for index in range(30):
                network.send(Message("A", "B", f"m{index}"))
            network.run()
            return [(when, message.payload) for when, message in b.received]

        assert trace() == trace()
