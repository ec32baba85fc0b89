"""The wire shape of a channel's reply: one stream of self-contained
data packets that reassembles in any arrival order, the destination's
statistics riding on its first packet."""

import pytest

from repro.channels import ChannelManager, DataPacket, Output
from repro.config import PeerConfig
from repro.core.algebra import Scan
from repro.net import Message, Network
from repro.peers.base import Peer, PeerBase
from repro.peers.simple import SimplePeer
from repro.rdf import TYPE, Graph, Namespace
from repro.rdf.dictionary import TermDictionary
from repro.rql.bindings import BindingTable, table_size_bytes
from repro.workloads.paper import N1, paper_query_pattern, paper_schema

from ..idtables import decode_cells, encode_cells, open_one

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
    channel = open_one(root, network, scan, lambda t, f: results.append((t, f)))
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
    packets = DataPacket.stream(channel.channel_id, [ids], sender, 3)
    assert len(packets) == 4
    for packet in packets:
        root.on_data(packet)
    ((assembled, _),) = in_order
    expected = decode_cells(assembled, root.dictionary)
    assert expected == table

    root, channel, results = _opened(scan)
    packets = DataPacket.stream(channel.channel_id, [ids], sender, 3)
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
        channel = open_one(root, network, scan, lambda t, f: results.append((t, f)))
        if index % 3 == 0:
            root.on_failure(channel.channel_id)
        else:
            for packet in DataPacket.stream(channel.channel_id, [ids], sender, 4):
                root.on_data(packet)
        assert not channel.is_open
    assert len(results) == 1000
    assert len(root) == 1 and len(root.open_channels()) == 1  # _opened()'s own

    for _ in range(DISCARDED_CHANNEL_LIMIT + 50):
        channel = open_one(root, network, scan, lambda t, f: results.append((t, f)))
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
    (packet,) = DataPacket.stream(channel.channel_id, [ids], sender, 4)
    root.on_data(packet)
    root.on_data(packet)  # replayed after the answer: nothing to account
    assert len(results) == 1 and root._metrics.discarded_bindings == 0

    discarded = open_one(root, _network(), scan, lambda t, f: results.append((t, f)))
    root.discard(discarded.channel_id)
    (late,) = DataPacket.stream(discarded.channel_id, [ids], sender, 4)
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
    open_one(root.channels, network, scan, lambda t, f: results.append((t, f)))
    network.run()

    ((table, failed),) = results
    assert failed is None and len(table) == rows
    data_packets = max(1, -(-rows // BATCH_SIZE))
    assert set(network.metrics.messages_by_kind) == {"SubPlanPacket", "DataPacket"}
    assert network.metrics.messages_by_kind["DataPacket"] == data_packets
    assert network.metrics.messages_total == 1 + data_packets  # + the subplan
    assert network.metrics.subplans_shipped == 1
    assert network.metrics.scans_empty == (1 if rows == 0 else 0)
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
    channel = open_one(root.channels, network, scan, lambda t, f: results.append((t, f)))
    sender = TermDictionary()
    table = BindingTable(
        ("X", "Y"), [(DATA[f"s{i % 3}"], DATA[f"o{i}"]) for i in range(rows)]
    )
    packets = DataPacket.stream(
        channel.channel_id,
        [encode_cells(table, sender)],
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
    tables = [table for p in packets for _, table in p.tables]
    assert [[t.value.rsplit("/", 1)[1] for t in table.terms] for table in tables] == [
        ["s0", "s1", "s2", "o0", "o1", "o2"],
        ["s0", "s1", "s2", "o3", "o4", "o5"],
        ["s0", "s1", "s2", "o6", "o7", "o8"],
        ["s0", "o9"],
    ]
    assert [table.ids for table in tables] == [((0, 1, 2), (3, 4, 5))] * 3 + [((0,), (1,))]
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
    open_one(root.channels, network, plan, lambda t, f: results.append((t, f)))
    network.run()

    assert results == [(None, "P9")]
    (packet,) = packets
    assert packet.failed_peer == "P9" and packet.rows == 0
    assert packet.cardinalities == {}


# ----------------------------------------------------------------------
# one shipment per destination: several subplans out in one packet, one
# stream back carrying every output's tables
# ----------------------------------------------------------------------
def _tables(sizes):
    """One term table per output, values recurring across outputs."""
    return [
        BindingTable(
            ("X", "Y"), [(DATA[f"s{i % 3}"], DATA[f"o{output}-{i}"]) for i in range(rows)]
        )
        for output, rows in enumerate(sizes)
    ]


def _shipment(scan, sizes=(5, 0, 2), chunk=3):
    """A root with one open channel shipping ``len(sizes)`` subplans to
    ``P2``, one result list per output, and the stream ``P2`` would
    answer with (never sent: the test delivers)."""
    network = _network()
    root = ChannelManager("P1")
    root.dictionary.encode(DATA.already_interned)
    results = [[] for _ in sizes]
    outputs = [
        Output(scan, lambda t, f, mine=mine: mine.append((t, f))) for mine in results
    ]
    channel = root.open(network, "P2", outputs)
    sender = TermDictionary()
    expected = _tables(sizes)
    packets = DataPacket.stream(
        channel.channel_id, [encode_cells(t, sender) for t in expected], sender, chunk
    )
    return network, root, channel, results, expected, packets


def test_stream_packs_whole_tables_and_splits_only_the_oversized(scan):
    """Tables are packed greedily while their rows fit ``chunk``; one
    that outgrows it splits as a lone table's stream always did, split
    tables take turns (both sides of a pipelined join fill together),
    and no table is cut to fill a packet."""
    *_, packets = _shipment(scan, sizes=(2, 0, 1, 7, 8, 1), chunk=3)
    assert [[(o, t.length) for o, t in p.tables] for p in packets] == [
        [(0, 2), (1, 0), (2, 1)],  # three whole tables, 3 rows
        [(3, 3)], [(4, 3)],  # first slices of the 7- and the 8-row table
        [(5, 1)],  # (a whole table is its own first slice)
        [(3, 3)], [(4, 3)],  # … their second slices …
        [(3, 1), (4, 2)],  # … and their tails, which fit one packet
    ]
    assert [p.seq for p in packets] == list(range(7))
    assert [p.final for p in packets] == [False] * 6 + [True]
    assert all(p.rows <= 3 for p in packets)
    for packet in packets:
        # one term list per packet: every term its tables reference, once
        used = [
            packet.terms[i] for _, t in packet.tables for column in t.ids for i in column
        ]
        assert packet.terms == tuple(dict.fromkeys(used))
        assert all(t.terms is packet.terms for _, t in packet.tables)
        cells = sum(
            table_size_bytes(t.columns, len(t.columns) * t.length, ())
            for _, t in packet.tables
        )
        terms = sum(len(term.n3()) for term in packet.terms)
        assert packet.size_bytes() == 64 + cells + terms
    # the first packet's outputs 0 and 2 share a subject, named once
    (_, first), _, (_, third) = packets[0].tables
    assert set(first.terms[i] for i in first.ids[0]) & set(third.terms[i] for i in third.ids[0])


def test_three_output_stream_in_any_order_equals_in_order_delivery(scan):
    _, root, _, in_order, expected, packets = _shipment(scan)
    assert len(packets) == 3 and [len(p.tables) for p in packets] == [2, 1, 1]
    for packet in packets:
        assert all(mine == [] for mine in in_order)
        root.on_data(packet)
    for mine, table in zip(in_order, expected):
        ((assembled, failed),) = mine
        assert failed is None and decode_cells(assembled, root.dictionary) == table

    _, root, channel, results, expected, packets = _shipment(scan)
    for packet in reversed(packets):
        assert all(mine == [] for mine in results)
        root.on_data(packet)
        if packet.seq == 1:
            root.on_data(packet)  # duplicated in flight
    for packet in packets:
        root.on_data(packet)  # a retransmitted shipment replays the stream
    for mine, table in zip(results, expected):
        ((assembled, failed),) = mine  # exactly once per output
        assert failed is None and decode_cells(assembled, root.dictionary) == table
    assert channel.tuples_received == 7 and not channel.is_open
    assert _per_channel_state(root, channel.channel_id) == []


def test_pipelined_outputs_get_their_own_chunks_and_one_done_signal(scan):
    network = _network()
    root = ChannelManager("P1")
    chunks, done = [[], []], [[], []]
    channel = root.open(
        network,
        "P2",
        [
            Output(scan, lambda t, f, i=i: done[i].append((len(t), f)), chunks[i].append)
            for i in range(2)
        ],
    )
    sender = TermDictionary()
    tables = _tables((4, 1))
    packets = DataPacket.stream(
        channel.channel_id, [encode_cells(t, sender) for t in tables], sender, 3
    )
    for packet in reversed(packets):
        assert done == [[], []]
        root.on_data(packet)
    assert done == [[(0, None)], [(0, None)]]
    assert sorted(len(c) for c in chunks[0]) == [1, 3] and [len(c) for c in chunks[1]] == [1]
    assert _per_channel_state(root, channel.channel_id) == []


def test_table_for_an_output_the_channel_never_shipped_is_refused(scan):
    """The codec cannot know how many outputs a channel has; its root
    does, and drops the packet whole instead of indexing past them."""
    _, root, channel, results, _, packets = _shipment(scan, sizes=(1, 1), chunk=4)
    (packet,) = packets
    ((_, table), _) = packet.tables
    root.on_data(DataPacket(channel.channel_id, ((0, table), (2, table))))
    assert results == [[], []] and channel.is_open and not channel.received_seqs
    root.on_data(packet)
    assert [len(mine) for mine in results] == [1, 1]


@pytest.mark.parametrize("how", ["failure-packet", "bounce", "stall"])
def test_failure_fails_the_channel_once_and_reaches_every_output(scan, how):
    _, root, channel, results, _, packets = _shipment(scan)
    root.on_data(packets[0])
    if how == "failure-packet":
        failure = DataPacket(channel.channel_id, failed_peer="P9", seq=len(packets))
        root.on_data(failure)
        root.on_data(failure)
    else:  # the destination is gone, or the monitor gave up on it
        root.on_failure(channel.channel_id)
        root.on_failure(channel.channel_id)
    culprit = "P9" if how == "failure-packet" else "P2"
    assert results == [[(None, culprit)]] * 3
    for packet in packets:
        root.on_data(packet)  # the rest of the stream changes nothing
    assert results == [[(None, culprit)]] * 3
    assert _per_channel_state(root, channel.channel_id) == []


def _serving(rows=3, **config):
    """``P2`` holding ``rows`` prop1 statements, a bare root ``P1`` that
    records the data packets it gets, and their network."""
    network = Network()
    serving = Peer("P2", _base(rows), config=PeerConfig(**{"batch_size": BATCH_SIZE, **config}))
    root = Peer("P1")
    serving.join(network)
    root.join(network)
    return network, serving, root, _spy_on_data(root)


def test_destination_answers_a_shipment_with_one_stream(scan):
    """Three subplans in, one ``SubPlanPacket``; their three tables
    out, packed under ``batch_size`` into one stream with the
    destination's statistics on its first packet."""
    network, serving, root, packets = _serving(rows=2)
    results = [[], [], []]
    root.channels.open(
        network,
        "P2",
        [Output(scan, lambda t, f, mine=mine: mine.append((t, f))) for mine in results],
    )
    network.run()
    assert [[(len(t), f) for t, f in mine] for mine in results] == [[(2, None)]] * 3
    kinds = network.metrics.messages_by_kind
    assert kinds == {"SubPlanPacket": 1, "DataPacket": 2}
    assert network.metrics.subplans_shipped == 3 and network.metrics.scans_empty == 0
    packets.sort(key=lambda p: p.seq)
    assert [[(o, t.length) for o, t in p.tables] for p in packets] == [
        [(0, 2), (1, 2)], [(2, 2)]
    ]
    assert packets[0].cardinalities == {N1.prop1.value: 2}
    assert packets[1].cardinalities == {}
    assert len(root.channels) == 0 and serving._executing_subplans == set()


def test_paced_shipment_serves_every_output_once_per_interval(scan):
    """``stream_interval`` pacing sends one turn per interval: both
    outputs of a shipment advance as fast as a channel of their own
    would, and a ``ChangePlanPacket`` between turns stops the rest."""
    from repro.channels.packets import ChangePlanPacket

    network, serving, root, packets = _serving(
        rows=5, batch_size=2, stream_interval=10.0
    )
    progress = [[], []]
    channel = root.channels.open(
        network,
        "P2",
        [
            Output(scan, lambda t, f: None, lambda t, mine=mine: mine.append(len(t)))
            for mine in progress
        ],
    )
    network.run(until=network.now + 9.0)
    assert progress == [[2], [2]]  # the first turn: a slice of each
    network.run(until=network.now + 10.0)
    assert progress == [[2, 2], [2, 2]]
    by_seq = sorted(packets, key=lambda p: p.seq)
    assert [[o for o, _ in p.tables] for p in by_seq] == [[0], [1], [0], [1]]
    root.channels.discard(channel.channel_id)
    network.send(Message("P1", "P2", ChangePlanPacket(channel.channel_id)))
    network.run()
    assert len(packets) == 4  # the tails (1 + 1 rows, one packet) never left
    assert network.metrics.discarded_bindings == 2
    assert serving._active_streams == set() and serving._cancelled_streams == set()


def test_retransmitted_shipment_is_replayed_verbatim_and_ignored_while_executing(scan):
    from repro.channels.packets import SubPlanPacket
    from repro.transport.codec import encode_message

    class Deferred:
        """A scheduler that holds every unit until told to run."""

        def __init__(self):
            self.units = []

        def submit(self, key, unit):
            self.units.append(unit)

        def pending(self):
            return len(self.units)

    network, serving, root, packets = _serving(rows=5)
    scheduler = Deferred()
    serving.install_scheduler(scheduler)
    shipment = SubPlanPacket("P1#7", (scan, scan), {}, "P1", "q1")
    serving.receive(Message("P1", "P2", shipment), network)
    assert serving._executing_subplans == {"P1#7"} and len(scheduler.units) == 2
    serving.receive(Message("P1", "P2", shipment), network)  # retransmit raced
    assert len(scheduler.units) == 2  # ... the in-flight run: ignored
    while scheduler.units:
        scheduler.units.pop(0)()
    network.run()
    first = [encode_message(Message("P2", "P1", p)) for p in packets]
    assert len(first) == 3  # two 5-row tables: 4 rows each, then 1 + 1
    assert serving._executing_subplans == set()
    assert list(serving._subplan_replay) == ["P1#7"]

    del packets[:]
    serving.receive(Message("P1", "P2", shipment), network)  # retransmit, answered
    assert scheduler.units == [] and serving._executing_subplans == set()
    network.run()
    assert [encode_message(Message("P2", "P1", p)) for p in packets] == first


def test_nested_failure_fails_the_whole_shipment_once(scan):
    """One of the shipped subplans needs a peer that is gone: the
    destination aborts the sibling, answers with one failure packet and
    remembers nothing to replay."""
    from repro.core.algebra import Union

    network, serving, root, packets = _serving(rows=3)
    network.register(_Sink("P9"))
    network.fail_peer("P9")
    results = [[], []]
    plans = [Union([scan, Scan(scan.patterns(), "P9")]), scan]
    root.channels.open(
        network,
        "P2",
        [Output(p, lambda t, f, mine=mine: mine.append((t, f))) for p, mine in zip(plans, results)],
    )
    network.run()
    assert results == [[(None, "P9")], [(None, "P9")]]
    (packet,) = packets
    assert packet.failed_peer == "P9" and packet.tables == () and packet.rows == 0
    assert serving._subplan_replay == {} and serving._executing_subplans == set()
    assert len(serving.channels) == 0 and len(root.channels) == 0
