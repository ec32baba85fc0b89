"""Tests for the discrete-event network simulator."""

import pytest

from repro.errors import NetworkError
from repro.net import DeliveryFailure, Message, Network


class Echo:
    """A node that records deliveries and optionally replies."""

    def __init__(self, peer_id, reply_to=None):
        self.peer_id = peer_id
        self.reply_to = reply_to
        self.received = []

    def receive(self, message, network):
        self.received.append((network.now, message))
        if self.reply_to and not isinstance(message.payload, DeliveryFailure):
            network.send(Message(self.peer_id, self.reply_to, "ack"))


@pytest.fixture
def network():
    return Network(seed=7, default_latency=1.0, default_cost_per_byte=0.0)


class TestRegistration:
    def test_duplicate_id_rejected(self, network):
        network.register(Echo("A"))
        with pytest.raises(NetworkError):
            network.register(Echo("A"))

    def test_unknown_destination_rejected(self, network):
        network.register(Echo("A"))
        with pytest.raises(NetworkError):
            network.send(Message("A", "B", "x"))

    def test_unknown_sender_rejected(self, network):
        network.register(Echo("B"))
        with pytest.raises(NetworkError):
            network.send(Message("A", "B", "x"))

    def test_peer_ids_sorted(self, network):
        network.register(Echo("B"))
        network.register(Echo("A"))
        assert network.peer_ids() == ["A", "B"]


class TestDelivery:
    def test_message_delivered_after_latency(self, network):
        a, b = Echo("A"), Echo("B")
        network.register(a)
        network.register(b)
        network.send(Message("A", "B", "hello"))
        network.run()
        assert len(b.received) == 1
        time, message = b.received[0]
        assert time == 1.0
        assert message.payload == "hello"

    def test_link_latency_honoured(self, network):
        a, b = Echo("A"), Echo("B")
        network.register(a)
        network.register(b)
        network.set_link("A", "B", latency=5.0, cost_per_byte=0.0)
        network.send(Message("A", "B", "hello"))
        network.run()
        assert b.received[0][0] == 5.0

    def test_bandwidth_charged_by_size(self):
        network = Network(default_latency=1.0, default_cost_per_byte=0.5)
        a, b = Echo("A"), Echo("B")
        network.register(a)
        network.register(b)
        network.send(Message("A", "B", "x", size=10))
        network.run()
        assert b.received[0][0] == pytest.approx(1.0 + 5.0)

    def test_in_order_for_same_latency(self, network):
        a, b = Echo("A"), Echo("B")
        network.register(a)
        network.register(b)
        for i in range(5):
            network.send(Message("A", "B", i))
        network.run()
        assert [m.payload for _, m in b.received] == [0, 1, 2, 3, 4]

    def test_reply_chains(self, network):
        a = Echo("A")
        b = Echo("B", reply_to="A")
        network.register(a)
        network.register(b)
        network.send(Message("A", "B", "ping"))
        network.run()
        assert a.received[0][1].payload == "ack"
        assert a.received[0][0] == 2.0

    def test_metrics_recorded(self, network):
        a, b = Echo("A"), Echo("B")
        network.register(a)
        network.register(b)
        network.send(Message("A", "B", "hello", size=42))
        network.run()
        assert network.metrics.messages_total == 1
        assert network.metrics.bytes_total == 42
        assert network.metrics.messages_received["B"] == 1


class TestFailures:
    def test_send_to_down_peer_bounces(self, network):
        a, b = Echo("A"), Echo("B")
        network.register(a)
        network.register(b)
        network.fail_peer("B")
        network.send(Message("A", "B", "hello"))
        network.run()
        assert b.received == []
        assert len(a.received) == 1
        failure = a.received[0][1].payload
        assert isinstance(failure, DeliveryFailure)
        assert failure.original.payload == "hello"

    def test_failure_mid_flight(self, network):
        a, b = Echo("A"), Echo("B")
        network.register(a)
        network.register(b)
        network.send(Message("A", "B", "hello"))
        network.fail_peer("B")  # before the event loop runs
        network.run()
        assert b.received == []
        assert isinstance(a.received[0][1].payload, DeliveryFailure)

    def test_recover_peer(self, network):
        a, b = Echo("A"), Echo("B")
        network.register(a)
        network.register(b)
        network.fail_peer("B")
        network.recover_peer("B")
        network.send(Message("A", "B", "hello"))
        network.run()
        assert len(b.received) == 1

    def test_a_down_peer_sends_and_meters_nothing(self, network):
        a, b = Echo("A"), Echo("B")
        network.register(a)
        network.register(b)
        network.fail_peer("A")
        # a timer the dead peer armed before its crash still fires
        network.call_later(1.0, lambda: network.send(Message("A", "B", "late")))
        network.run()
        assert b.received == [] and network.metrics.messages_total == 0
        network.recover_peer("A")
        network.send(Message("A", "B", "back"))
        network.run()
        assert len(b.received) == 1 and network.metrics.messages_total == 1

    def test_is_down(self, network):
        network.register(Echo("A"))
        network.fail_peer("A")
        assert network.is_down("A")


class TestEventLoop:
    def test_run_until(self, network):
        a, b = Echo("A"), Echo("B")
        network.register(a)
        network.register(b)
        network.set_link("A", "B", latency=10.0)
        network.send(Message("A", "B", "late"))
        network.run(until=5.0)
        assert b.received == []
        network.run()
        assert len(b.received) == 1

    def test_event_budget(self, network):
        a = Echo("A")
        network.register(a)

        def loop():
            network.call_later(0.1, loop)

        loop()
        with pytest.raises(NetworkError):
            network.run(max_events=100)

    def test_call_later_negative_rejected(self, network):
        with pytest.raises(NetworkError):
            network.call_later(-1.0, lambda: None)

    def test_clock_monotone(self, network):
        times = []
        network.call_later(3.0, lambda: times.append(network.now))
        network.call_later(1.0, lambda: times.append(network.now))
        network.run()
        assert times == [1.0, 3.0]
