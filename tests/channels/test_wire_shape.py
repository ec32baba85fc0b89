"""The wire shape of a channel's reply: one statistics packet plus
self-contained data packets that reassemble in any arrival order."""

import pytest

from repro.channels import ChannelManager, DataPacket
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


def _opened(scan):
    """A root manager with one open channel; its id space is skewed so
    sender ids never coincide with the root's."""
    network = Network()
    network.register(_Sink("P1"))
    network.register(_Sink("P2"))
    root = ChannelManager("P1")
    root.dictionary.encode(DATA.already_interned)
    results = []
    channel = root.open(network, "P2", scan, lambda t, f: results.append((t, f)))
    return root, channel, results


def _per_channel_state(manager, channel_id):
    """Names of the manager's tables still holding anything for the
    channel (the ``Channel`` record itself is kept for late lookups)."""
    return [
        name
        for name, value in vars(manager).items()
        if name != "_channels"
        and isinstance(value, (dict, set))
        and channel_id in value
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
    serving = Peer("P2", PeerBase(graph, schema))
    serving.batch_size = BATCH_SIZE
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
