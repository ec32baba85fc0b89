"""Tests for the channel construct and its manager."""

from dataclasses import replace

import pytest

from repro.channels import (
    Channel,
    ChannelManager,
    ChannelState,
    DataPacket,
    Output,
    SubPlanPacket,
)
from repro.core.algebra import Scan
from repro.errors import ChannelError
from repro.net import Network
from repro.rdf.dictionary import TermDictionary
from repro.rql.bindings import BindingTable
from repro.workloads.paper import paper_query_pattern, paper_schema

from ..idtables import decode_cells, encode_cells, open_one


def data(channel_id, table, sender=None, **fields):
    """The packet a peer with dictionary ``sender`` ships for the term
    table ``table``: id columns plus the entries they reference."""
    sender = sender if sender is not None else TermDictionary()
    (packet,) = DataPacket.stream(
        channel_id, [encode_cells(table, sender)], sender, max(1, len(table))
    )
    return replace(packet, **fields)


def terms(manager, table):
    """A completed channel's id table, decoded through its root's space."""
    return decode_cells(table, manager.dictionary)


class _Sink:
    """A registered node that records deliveries."""

    def __init__(self, peer_id):
        self.peer_id = peer_id
        self.received = []

    def receive(self, message, network):
        self.received.append(message)


@pytest.fixture
def scan():
    return Scan((paper_query_pattern(paper_schema()).root,), "P2")


@pytest.fixture
def wired():
    network = Network()
    root, dest = _Sink("P1"), _Sink("P2")
    network.register(root)
    network.register(dest)
    return network, root, dest


class TestChannel:
    def test_initial_state_open(self, scan):
        channel = Channel("P1#1", "P1", "P2", [Output(scan)])
        assert channel.is_open
        assert channel.state is ChannelState.OPEN

    def test_close_only_from_open(self, scan):
        channel = Channel("P1#1", "P1", "P2", [Output(scan)])
        channel.fail()
        channel.close()
        assert channel.state is ChannelState.FAILED

    def test_tuples_accumulate(self, scan):
        channel = Channel("P1#1", "P1", "P2", [Output(scan)])
        channel.record_tuples(3)
        channel.record_tuples(4)
        assert channel.tuples_received == 7


class TestManager:
    def test_open_sends_subplan(self, wired, scan):
        network, root, dest = wired
        manager = ChannelManager("P1")
        results = []
        channel = open_one(manager, network, scan, lambda t, f: results.append((t, f)))
        network.run()
        assert channel.channel_id == "P1#1"
        assert len(dest.received) == 1
        packet = dest.received[0].payload
        assert isinstance(packet, SubPlanPacket)
        assert packet.channel_id == "P1#1"

    def test_ids_unique(self, wired, scan):
        network, _, _ = wired
        manager = ChannelManager("P1")
        c1 = open_one(manager, network, scan, lambda t, f: None)
        c2 = open_one(manager, network, scan, lambda t, f: None)
        assert c1.channel_id != c2.channel_id

    def test_final_data_invokes_callback_and_closes(self, wired, scan):
        network, _, _ = wired
        manager = ChannelManager("P1")
        results = []
        channel = open_one(manager, network, scan, lambda t, f: results.append((t, f)))
        table = BindingTable(("X",))
        manager.on_data(data(channel.channel_id, table, final=True))
        ((answered, failed),) = results
        assert failed is None and terms(manager, answered) == table
        assert channel.state is ChannelState.CLOSED

    def test_failure_packet_reports_peer(self, wired, scan):
        network, _, _ = wired
        manager = ChannelManager("P1")
        results = []
        channel = open_one(manager, network, scan, lambda t, f: results.append((t, f)))
        manager.on_data(data(channel.channel_id, BindingTable(()), failed_peer="P9"))
        assert results == [(None, "P9")]
        assert channel.state is ChannelState.FAILED

    def test_transport_failure(self, wired, scan):
        network, _, _ = wired
        manager = ChannelManager("P1")
        results = []
        channel = open_one(manager, network, scan, lambda t, f: results.append((t, f)))
        manager.on_failure(channel.channel_id)
        assert results == [(None, "P2")]

    def test_discard_suppresses_callback(self, wired, scan):
        network, _, _ = wired
        manager = ChannelManager("P1")
        results = []
        channel = open_one(manager, network, scan, lambda t, f: results.append((t, f)))
        manager.discard(channel.channel_id)
        manager.on_data(data(channel.channel_id, BindingTable(()), final=True))
        assert results == []

    def test_discard_all_counts_open(self, wired, scan):
        network, _, _ = wired
        manager = ChannelManager("P1")
        open_one(manager, network, scan, lambda t, f: None)
        open_one(manager, network, scan, lambda t, f: None)
        assert manager.discard_all() == 2
        assert manager.open_channels() == {}

    def test_late_packet_for_unknown_channel_dropped(self):
        manager = ChannelManager("P1")
        manager.on_data(data("P1#99", BindingTable(()), final=True))  # no raise

    def test_unknown_channel_lookup_raises(self):
        with pytest.raises(ChannelError):
            ChannelManager("P1").channel("nope")

    def test_packet_sizes_positive(self, scan):
        assert SubPlanPacket("c", (scan,)).size_bytes() > 0
        assert data("c", BindingTable(("X",))).size_bytes() > 0

    def test_data_packet_pays_for_its_entries(self):
        one = data("c", _rows("a"))
        two = data("c", _rows("a", "b"))
        repeated = data("c", _rows("a", "a"))
        # a repeated value costs one more 4-byte cell, a new one also
        # its dictionary entry
        assert repeated.size_bytes() == one.size_bytes() + 4
        assert two.size_bytes() > repeated.size_bytes()


def _rows(*names):
    from repro.rdf import URI

    return BindingTable(("X",), [(URI(f"http://w/{n}"),) for n in names])


class TestOutOfOrderReassembly:
    """Batched streams complete when every seq arrived, not when the
    final packet does — small final packets overtake big chunks."""

    def _open(self, wired, scan):
        network, _, _ = wired
        manager = ChannelManager("P1")
        results = []
        channel = open_one(manager, network, scan, lambda t, f: results.append((t, f)))
        return manager, channel, results

    def test_final_overtaking_chunks_waits_for_them(self, wired, scan):
        manager, channel, results = self._open(wired, scan)
        cid = channel.channel_id
        manager.on_data(data(cid, _rows("c"), seq=2, final=True))
        assert results == []  # seqs 0 and 1 still in flight
        assert channel.is_open
        manager.on_data(data(cid, _rows("a"), seq=0, final=False))
        assert results == []
        manager.on_data(data(cid, _rows("b"), seq=1, final=False))
        assert len(results) == 1
        table, failed = results[0]
        assert failed is None
        assert terms(manager, table) == _rows("a", "b", "c")
        assert channel.state is ChannelState.CLOSED

    def test_in_order_stream_still_completes_on_final(self, wired, scan):
        manager, channel, results = self._open(wired, scan)
        cid = channel.channel_id
        manager.on_data(data(cid, _rows("a"), seq=0, final=False))
        manager.on_data(data(cid, _rows("b"), seq=1, final=True))
        assert terms(manager, results[0][0]) == _rows("a", "b")

    def test_duplicate_chunk_not_double_counted(self, wired, scan):
        manager, channel, results = self._open(wired, scan)
        cid = channel.channel_id
        manager.on_data(data(cid, _rows("a"), seq=0, final=False))
        manager.on_data(data(cid, _rows("a"), seq=0, final=False))  # retransmit race
        manager.on_data(data(cid, _rows("b"), seq=1, final=True))
        assert terms(manager, results[0][0]) == _rows("a", "b")


class TestDiscardAccounting:
    """ubQL discards account the bindings they throw away, both
    already-buffered and still-in-flight."""

    def _manager_with_metrics(self):
        from repro.metrics.collectors import MetricSet

        manager = ChannelManager("P1")
        metrics = MetricSet()
        manager.bind_metrics(metrics)
        return manager, metrics

    def test_discard_counts_buffered_chunks(self, wired, scan):
        network, _, _ = wired
        manager, metrics = self._manager_with_metrics()
        channel = open_one(manager, network, scan, lambda t, f: None)
        manager.on_data(data(channel.channel_id, _rows("a", "b"), seq=0, final=False))
        manager.on_data(data(channel.channel_id, _rows("c"), seq=1, final=False))
        manager.discard(channel.channel_id)
        assert metrics.discarded_bindings == 3

    def test_late_packet_after_discard_counted(self, wired, scan):
        network, _, _ = wired
        manager, metrics = self._manager_with_metrics()
        channel = open_one(manager, network, scan, lambda t, f: None)
        manager.discard(channel.channel_id)
        manager.on_data(data(channel.channel_id, _rows("a", "b"), seq=0, final=True))
        assert metrics.discarded_bindings == 2

    def test_discard_without_metrics_is_silent(self, wired, scan):
        network, _, _ = wired
        manager = ChannelManager("P1")
        channel = open_one(manager, network, scan, lambda t, f: None)
        manager.on_data(data(channel.channel_id, _rows("a"), seq=0, final=False))
        manager.discard(channel.channel_id)  # no metrics bound: no raise


class TestStreamTeardownDrain:
    """A replan that cancels paced streams must leave no residue: no
    pending events, no cancellation markers, and the thrown-away
    bindings accounted."""

    def _stalled_system(self):
        from repro.config import PeerConfig, reconfigure
        from repro.systems import HybridSystem
        from repro.workloads.paper import paper_peer_bases, paper_schema

        system = HybridSystem(
            paper_schema(),
            config=PeerConfig(monitor_channels=True, monitor_interval=5.0),
        )
        system.add_super_peer("SP1")
        for peer_id, graph in paper_peer_bases().items():
            system.add_peer(peer_id, graph, "SP1")
        reconfigure(system.peers["P2"], stream_chunk_rows=1, stream_interval=50.0)
        return system

    def test_network_drains_after_cancelled_stream(self):
        from repro.workloads.paper import PAPER_QUERY

        system = self._stalled_system()
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 5
        system.network.run()  # flush any remaining timers
        assert system.network.pending_events() == 0
        for peer in system.peers.values():
            assert peer._cancelled_streams == set()
            assert peer._active_streams == set()

    def test_cancelled_stream_bindings_are_accounted(self):
        from repro.workloads.paper import PAPER_QUERY

        system = self._stalled_system()
        system.query("P1", PAPER_QUERY)
        system.network.run()
        kinds = system.network.metrics.messages_by_kind
        assert kinds.get("ChangePlanPacket", 0) >= 1
        assert system.network.metrics.discarded_bindings > 0
