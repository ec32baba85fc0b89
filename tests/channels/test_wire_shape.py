"""The wire shape of a channel's reply: one statistics packet plus
self-contained data packets that reassemble in any arrival order."""

import pytest

from repro.channels import ChannelManager, DataPacket
from repro.config import PeerConfig
from repro.core.algebra import Scan
from repro.execution.encoded import decode_cells, encode_cells
from repro.net import Network
from repro.peers.base import Peer, PeerBase
from repro.rdf import TYPE, Graph, Namespace
from repro.rdf.dictionary import TermDictionary
from repro.rql.bindings import BindingTable
from repro.workloads.paper import N1, paper_query_pattern, paper_schema

DATA = Namespace("http://wire/")
BATCH_SIZE = 4


@pytest.fixture
def scan():
    return Scan((paper_query_pattern(paper_schema()).root,), "P2")


class _Sink:
    def __init__(self, peer_id):
        self.peer_id = peer_id

    def receive(self, message, network):
        pass


def _network():
    network = Network()
    network.register(_Sink("P1"))
    network.register(_Sink("P2"))
    return network


def _opened(scan):
    """A root manager with one open channel; its id space is skewed so
    sender ids never coincide with the root's."""
    network = _network()
    root = ChannelManager("P1")
    root.dictionary.encode(DATA.already_interned)
    results = []
    channel = root.open(network, "P2", scan, lambda t, f: results.append((t, f)))
    return root, channel, results


def _per_channel_state(manager, channel_id):
    """Names of the manager's tables still holding anything for the
    channel."""
    return [
        name
        for name, value in vars(manager).items()
        if isinstance(value, (dict, set)) and channel_id in value
    ]


def test_reversed_duplicated_and_replayed_stream_equals_in_order_delivery(scan):
    table = BindingTable(
        ("X", "Y"),
        # values recur across chunks: every chunk must bring its own entries
        [(DATA[f"s{i % 3}"], DATA[f"o{i}"]) for i in range(10)],
    )
    sender = TermDictionary()
    ids = encode_cells(table, sender)

    root, channel, in_order = _opened(scan)
    packets = DataPacket.stream(channel.channel_id, ids, sender, 3)
    assert len(packets) == 4
    for packet in packets:
        root.on_data(packet)
    ((assembled, _),) = in_order
    expected = decode_cells(assembled, root.dictionary)
    assert expected == table

    root, channel, results = _opened(scan)
    packets = DataPacket.stream(channel.channel_id, ids, sender, 3)
    for packet in reversed(packets):
        assert results == []
        root.on_data(packet)
        if packet.seq == 2:
            root.on_data(packet)  # duplicated in flight
    for packet in packets:
        root.on_data(packet)  # a retransmitted subplan replays the stream
    ((assembled, failed),) = results
    assert failed is None
    assert decode_cells(assembled, root.dictionary) == expected
    assert _per_channel_state(root, channel.channel_id) == []


def test_answered_and_discarded_channels_leave_no_record(scan):
    """A long-lived peer forgets every channel it has finished with:
    answered, failed or discarded, none stays in the manager (the
    discarded ids it remembers for late-packet accounting are bounded)."""
    from repro.channels.manager import DISCARDED_CHANNEL_LIMIT

    root, _, results = _opened(scan)
    sender = TermDictionary()
    ids = encode_cells(BindingTable(("X", "Y"), [(DATA.s, DATA.o)]), sender)
    network = _network()
    for index in range(1000):
        channel = root.open(network, "P2", scan, lambda t, f: results.append((t, f)))
        if index % 3 == 0:
            root.on_failure(channel.channel_id)
        else:
            for packet in DataPacket.stream(channel.channel_id, ids, sender, 4):
                root.on_data(packet)
        assert not channel.is_open
    assert len(results) == 1000
    assert len(root) == 1 and len(root.open_channels()) == 1  # _opened()'s own

    for _ in range(DISCARDED_CHANNEL_LIMIT + 50):
        channel = root.open(network, "P2", scan, lambda t, f: results.append((t, f)))
        root.discard(channel.channel_id)
    assert len(results) == 1000  # discards never ran a continuation
    assert len(root) == 1
    assert len(root._discarded) == DISCARDED_CHANNEL_LIMIT


def test_late_packets_after_teardown(scan):
    """Bindings arriving for a discarded channel are accounted as
    discarded; a replay for an answered channel is dropped silently."""
    from repro.metrics import MetricSet

    root, channel, results = _opened(scan)
    root.bind_metrics(MetricSet())
    sender = TermDictionary()
    ids = encode_cells(BindingTable(("X", "Y"), [(DATA.s, DATA.o)]), sender)
    (packet,) = DataPacket.stream(channel.channel_id, ids, sender, 4)
    root.on_data(packet)
    root.on_data(packet)  # replayed after the answer: nothing to account
    assert len(results) == 1 and root._metrics.discarded_bindings == 0

    discarded = root.open(_network(), "P2", scan, lambda t, f: results.append((t, f)))
    root.discard(discarded.channel_id)
    (late,) = DataPacket.stream(discarded.channel_id, ids, sender, 4)
    root.on_data(late)
    assert len(results) == 1 and root._metrics.discarded_bindings == 1


@pytest.mark.parametrize("rows", [0, 1, BATCH_SIZE, BATCH_SIZE + 1])
def test_reply_is_one_stats_packet_plus_ceil_rows_over_batch_size(rows, scan):
    schema = paper_schema()
    definition = schema.property_def(N1.prop1)
    graph = Graph()
    for i in range(rows):
        subject, obj = DATA[f"s{i}"], DATA[f"o{i}"]
        graph.add(subject, TYPE, definition.domain)
        graph.add(obj, TYPE, definition.range)
        graph.add(subject, N1.prop1, obj)
    network = Network()
    serving = Peer(
        "P2", PeerBase(graph, schema), config=PeerConfig(batch_size=BATCH_SIZE)
    )
    root = Peer("P1")
    serving.join(network)
    root.join(network)
    results = []
    root.channels.open(network, "P2", scan, lambda t, f: results.append((t, f)))
    network.run()

    ((table, failed),) = results
    assert failed is None and len(table) == rows
    kinds = network.metrics.messages_by_kind
    data_packets = max(1, -(-rows // BATCH_SIZE))
    assert kinds["DataPacket"] == data_packets
    assert kinds["StatsPacket"] == 1
    assert network.metrics.messages_total == 1 + 1 + data_packets  # + the subplan
