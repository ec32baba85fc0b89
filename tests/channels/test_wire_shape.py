"""The wire shape of a channel's reply: one stream of self-contained
data packets that reassembles in any arrival order, the destination's
statistics riding on its first packet."""

import pytest

from repro.channels import ChannelManager, DataPacket
from repro.config import PeerConfig
from repro.core.algebra import Scan
from repro.net import Message, Network
from repro.peers.base import Peer, PeerBase
from repro.peers.simple import SimplePeer
from repro.rdf import TYPE, Graph, Namespace
from repro.rdf.dictionary import TermDictionary
from repro.rql.bindings import BindingTable
from repro.workloads.paper import N1, paper_query_pattern, paper_schema

from ..idtables import decode_cells, encode_cells

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


def _network(*sinks):
    network = Network()
    for peer_id in sinks or ("P1", "P2"):
        network.register(_Sink(peer_id))
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


def _base(rows):
    """A base holding ``rows`` prop1 statements."""
    schema = paper_schema()
    definition = schema.property_def(N1.prop1)
    graph = Graph()
    for i in range(rows):
        subject, obj = DATA[f"s{i}"], DATA[f"o{i}"]
        graph.add(subject, TYPE, definition.domain)
        graph.add(obj, TYPE, definition.range)
        graph.add(subject, N1.prop1, obj)
    return PeerBase(graph, schema)


def _spy_on_data(peer):
    """Record every ``DataPacket`` ``peer`` receives, in arrival order."""
    seen = []
    handle = peer.handle_DataPacket

    def spy(message):
        seen.append(message.payload)
        handle(message)

    peer.handle_DataPacket = spy
    return seen


@pytest.mark.parametrize("rows", [0, 1, BATCH_SIZE, BATCH_SIZE + 1])
def test_reply_is_one_stats_packet_plus_ceil_rows_over_batch_size(rows, scan):
    """A channel is one subplan out and ``max(1, ⌈rows / batch_size⌉)``
    data packets back — no separate statistics message: the
    cardinalities ride on ``seq == 0`` and on no later packet."""
    network = Network()
    serving = Peer("P2", _base(rows), config=PeerConfig(batch_size=BATCH_SIZE))
    root = Peer("P1")
    serving.join(network)
    root.join(network)
    packets = _spy_on_data(root)
    results = []
    root.channels.open(network, "P2", scan, lambda t, f: results.append((t, f)))
    network.run()

    ((table, failed),) = results
    assert failed is None and len(table) == rows
    data_packets = max(1, -(-rows // BATCH_SIZE))
    assert set(network.metrics.messages_by_kind) == {"SubPlanPacket", "DataPacket"}
    assert network.metrics.messages_by_kind["DataPacket"] == data_packets
    assert network.metrics.messages_total == 1 + data_packets  # + the subplan
    packets.sort(key=lambda p: p.seq)  # a short last chunk may overtake
    assert [p.seq for p in packets] == list(range(data_packets))
    assert packets[0].cardinalities == {N1.prop1.value: rows}
    assert all(p.cardinalities == {} for p in packets[1:])


def _rooted(scan, rows=10, chunk=3):
    """A coordinator ``P1`` with one open channel to ``P2`` and the
    stream ``P2`` would answer it with (never sent: the test delivers)."""
    network = _network("P2")
    root = SimplePeer("P1", _base(0))
    root.join(network)
    results = []
    channel = root.channels.open(
        network, "P2", scan, lambda t, f: results.append((t, f))
    )
    sender = TermDictionary()
    table = BindingTable(
        ("X", "Y"), [(DATA[f"s{i % 3}"], DATA[f"o{i}"]) for i in range(rows)]
    )
    packets = DataPacket.stream(
        channel.channel_id,
        encode_cells(table, sender),
        sender,
        chunk,
        {N1.prop1.value: rows},
    )
    deliver = lambda packet: root.receive(Message("P2", "P1", packet), network)
    return root, channel, results, packets, deliver


def test_stream_packs_each_row_slice_over_its_own_terms(scan):
    """The stream's literal shape, pinned on the tree that packed the
    whole table and re-packed row slices of it: slicing the id batch
    first and packing each slice once gives the same packets — count,
    per-packet term order (first use within the slice, column by
    column), cell positions and modelled bytes."""
    *_, packets, _ = _rooted(scan)
    assert [(p.seq, p.rows) for p in packets] == [(0, 3), (1, 3), (2, 3), (3, 1)]
    assert [p.final for p in packets] == [False, False, False, True]
    assert [[t.value.rsplit("/", 1)[1] for t in p.table.terms] for p in packets] == [
        ["s0", "s1", "s2", "o0", "o1", "o2"],
        ["s0", "s1", "s2", "o3", "o4", "o5"],
        ["s0", "s1", "s2", "o6", "o7", "o8"],
        ["s0", "o9"],
    ]
    assert [p.table.ids for p in packets] == [((0, 1, 2), (3, 4, 5))] * 3 + [((0,), (1,))]
    assert [p.size_bytes() for p in packets] == [222, 206, 206, 126]


def test_statistics_fold_once_whatever_the_arrival_order(scan):
    """Reversed, with a duplicate and a full replay: the same table,
    the same statistics, the same ``Statistics.version`` as in-order
    delivery, and nothing left behind for the channel."""
    root, _, in_order, packets, deliver = _rooted(scan)
    assert len(packets) == 4
    before = root.statistics.version
    for packet in packets:
        deliver(packet)
    ((expected, _),) = in_order
    expected = decode_cells(expected, root.dictionary)
    bumps = root.statistics.version - before
    assert bumps == 1 and root.statistics.cardinality("P2", N1.prop1) == 10

    root, channel, results, packets, deliver = _rooted(scan)
    before = root.statistics.version
    for packet in reversed(packets):
        assert results == []
        deliver(packet)
        if packet.seq in (0, 2):
            deliver(packet)  # duplicated in flight
    for packet in packets:
        deliver(packet)  # a retransmitted subplan replays the stream
    ((assembled, failed),) = results
    assert failed is None
    assert decode_cells(assembled, root.dictionary) == expected
    assert root.statistics.version - before == bumps
    assert root.statistics.cardinality("P2", N1.prop1) == 10
    assert _per_channel_state(root.channels, channel.channel_id) == []


def test_discard_after_the_first_packet_has_still_fed_the_optimiser(scan):
    root, channel, results, packets, deliver = _rooted(scan)
    deliver(packets[0])
    root.channels.discard(channel.channel_id)
    for packet in packets[1:]:
        deliver(packet)
    assert results == []  # the continuation never ran
    assert root.statistics.cardinality("P2", N1.prop1) == 10
    assert _per_channel_state(root.channels, channel.channel_id) == ["_discarded"]


def test_failure_packet_carries_no_cardinalities(scan):
    """``P2`` hosts a union whose other branch lives at a peer that is
    gone: its reply is one failure packet naming the culprit, with no
    statistics (nothing was measured for the root to learn)."""
    from repro.core.algebra import Union

    network = Network()
    serving = Peer("P2", _base(3))
    root = Peer("P1")
    serving.join(network)
    root.join(network)
    network.register(_Sink("P9"))
    network.fail_peer("P9")
    packets = _spy_on_data(root)
    results = []
    plan = Union([scan, Scan(scan.patterns(), "P9")])
    root.channels.open(network, "P2", plan, lambda t, f: results.append((t, f)))
    network.run()

    assert results == [(None, "P9")]
    (packet,) = packets
    assert packet.failed_peer == "P9" and packet.rows == 0
    assert packet.cardinalities == {}
