"""Round-trip tests for the wire codec over every message kind.

The canonical-form property these tests lean on: ``encode_message``
omits process-local identity (the message id), so decode→re-encode is
byte-identical — the equality the live transport's differential
validation is built on.
"""

import json

import pytest

from repro.core import build_plan, optimize, route_query
from repro.core.algebra import Hole, Join, Scan, Union
from repro.channels.packets import (
    ChangePlanPacket,
    DataPacket,
    SubPlanPacket,
)
from repro.errors import CodecError
from repro.execution.encoded import EncodedTable
from repro.net.message import DeliveryFailure, Message
from repro.obs import TraceContext
from repro.peers.protocol import (
    Advertise,
    AdvertisementReply,
    AdvertisementRequest,
    DelegatedResult,
    Goodbye,
    PartialPlan,
    QueryResult,
    QueryShed,
    QuerySubmit,
    RouteBusy,
    RouteReply,
    RouteRequest,
)
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import BNode, Literal, URI, Variable
from repro.resilience.partial import Coverage
from repro.rql.bindings import BindingTable
from repro.rvl import ActiveSchema
from repro.transport.codec import (
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
    encode_payload,
    decode_payload,
)
from repro.workloads.paper import (
    paper_active_schemas,
    paper_peer_bases,
    paper_query_pattern,
    paper_schema,
)

from ..idtables import TABLE_BEARERS, decode_cells, encode_cells


def round_trip(payload, src="P1", dst="P2"):
    message = Message(src, dst, payload)
    fields = encode_message(message)
    # the wire carries JSON: the encoding must survive serialisation
    fields = json.loads(json.dumps(fields))
    decoded = decode_message(fields)
    assert decoded.src == src and decoded.dst == dst
    # canonical form: re-encoding the decoded message is identical
    assert encode_message(decoded) == fields
    return decoded.payload


@pytest.fixture(scope="module")
def schema():
    return paper_schema()


@pytest.fixture(scope="module")
def annotated(schema):
    pattern = paper_query_pattern(schema)
    return route_query(pattern, paper_active_schemas(schema).values(), schema)


@pytest.fixture(scope="module")
def plan(annotated):
    return optimize(build_plan(annotated)).result


def sample_table():
    return BindingTable(
        ("X", "Y"),
        [
            (URI("http://example.org/a"), Literal("x")),
            (BNode("b1"), Literal(3)),
            (URI("http://example.org/c"), Literal(2.5)),
        ],
    )


def test_terms_round_trip():
    for term in (
        URI("http://example.org/x"),
        BNode("node7"),
        Variable("X"),
        Literal("plain"),
        Literal("tagged", language="en"),
        Literal(42),
        Literal(1.5),
        Literal(True),
    ):
        assert decode_payload(json.loads(json.dumps(encode_payload(term)))) == term


def test_query_submit_round_trip():
    payload = QuerySubmit("q1", "SELECT X FROM ...", "client1",
                          max_peers=2, limit=10, order_by="X", descending=True)
    assert round_trip(payload) == payload


def test_query_result_with_coverage_round_trip(annotated):
    coverage = Coverage(
        answered=(annotated.query_pattern.patterns[0],),
        unanswered=tuple(annotated.query_pattern.patterns[1:]),
        excluded_peers=("P2",),
        attempts=3,
    )
    payload = QueryResult("q1", EncodedTable.of_terms(sample_table()), None, coverage)
    decoded = round_trip(payload)
    assert decoded.table == payload.table
    assert decoded.table.to_terms() == sample_table()
    assert decoded.coverage == coverage


def test_routing_messages_round_trip(annotated):
    request = RouteRequest("q2", annotated.query_pattern, "P1", hops=1)
    decoded = round_trip(request)
    assert decoded.pattern == annotated.query_pattern
    reply = round_trip(RouteReply("q2", annotated))
    assert reply.annotated.query_pattern == annotated.query_pattern
    for pattern in annotated.query_pattern:
        assert reply.annotated.peers_for(pattern) == annotated.peers_for(pattern)
    assert reply.annotated.all_peers() == annotated.all_peers()


def test_advertisements_round_trip(schema):
    bases = paper_peer_bases()
    active = ActiveSchema.from_base(bases["P1"], schema, "P1")
    decoded = round_trip(Advertise(active))
    assert decoded.active_schema.to_dict() == active.to_dict()
    assert round_trip(AdvertisementRequest("P1", depth=2)) == AdvertisementRequest(
        "P1", depth=2
    )
    reply = round_trip(AdvertisementReply((active,), "SP1"))
    assert reply.from_peer == "SP1"
    assert reply.schemas[0].to_dict() == active.to_dict()


def test_plan_messages_round_trip(plan, annotated):
    partial = PartialPlan("q3", plan, annotated.query_pattern, "P1", "client1",
                          visited=("P1", "P2"), conditions_text="X > 3", token=4)
    decoded = round_trip(partial)
    assert decoded.plan.render() == plan.render()
    assert decoded.visited == ("P1", "P2")
    sub = SubPlanPacket("ch-1", (plan,), {(0, 0, 1): "P2", (0,): "P1"}, "P1", "q3")
    decoded = round_trip(sub)
    assert [p.render() for p in decoded.plans] == [plan.render()]
    assert decoded.sites == {(0, 0, 1): "P2", (0,): "P1"}
    # a shipment: three subplans for one destination, sites under two
    scans = tuple(node for node in plan.walk() if isinstance(node, Scan))[:2]
    sites = {(0, 1): "P3", (0, 0, 1): "P2", (2,): "P4"}
    decoded = round_trip(SubPlanPacket("ch-2", (plan, *scans), sites, "P1", "q3"))
    assert [p.render() for p in decoded.plans] == [
        plan.render(), *(scan.render() for scan in scans)
    ]
    assert decoded.sites == sites and isinstance(decoded.plans, tuple)


def test_algebra_nodes_round_trip(annotated):
    pattern = annotated.query_pattern.patterns[0]
    tree = Union([
        Join([Scan([pattern], "P1"), Hole(pattern)]),
        Scan([pattern], "P2"),
    ])
    decoded = decode_payload(json.loads(json.dumps(encode_payload(tree))))
    assert decoded.render() == tree.render()


def test_channel_packets_round_trip():
    sender = TermDictionary()
    ids = encode_cells(sample_table(), sender)
    (first, last) = DataPacket.stream("ch-1", [ids], sender, 2)
    assert round_trip(first) == first
    assert round_trip(last) == last
    # self-contained: each chunk names exactly the terms it references
    ((_, head),), ((_, tail),) = first.tables, last.tables
    assert (len(head.terms), len(tail.terms)) == (4, 2)
    assert not first.final and last.final and last.seq == 1
    # the destination's statistics ride on the stream's first packet
    with_stats = DataPacket("ch-1", first.tables, final=False, cardinalities={"p": 5})
    assert round_trip(with_stats) == with_stats
    failure = DataPacket("ch-1", failed_peer="P3", seq=7)
    assert round_trip(failure) == failure and failure.rows == 0
    # a shipment's reply: whole tables of three outputs in one packet,
    # the one too large for it split over the next two
    empty = encode_cells(BindingTable(("X", "Y")), sender)
    stream = DataPacket.stream("ch-2", [ids.split(1)[0], empty, ids], sender, 2)
    assert [[(o, t.length) for o, t in p.tables] for p in stream] == [
        [(0, 1), (1, 0)], [(2, 2)], [(2, 1)]
    ]
    for packet in stream:
        assert round_trip(packet) == packet
    assert round_trip(ChangePlanPacket("ch-1", "peer lost")) == ChangePlanPacket(
        "ch-1", "peer lost"
    )


def test_misc_payloads_round_trip():
    assert round_trip(QueryShed("q1", 25.0, "P1")) == QueryShed("q1", 25.0, "P1")
    assert round_trip(RouteBusy("q1", 10.0, "SP1")) == RouteBusy("q1", 10.0, "SP1")
    assert round_trip(Goodbye("P2")) == Goodbye("P2")
    delegated = DelegatedResult(
        "q4", EncodedTable.of_terms(sample_table()), "P2", None, token=2
    )
    assert round_trip(delegated).table == delegated.table


WIRE_TABLES = {
    "sample": sample_table(),
    "repeated-terms": BindingTable(
        ("X", "Y"), [(URI("http://example.org/a"), Literal("x"))] * 4
    ),
    "zero-rows": BindingTable(("X", "Y")),
    "zero-columns": BindingTable((), [(), ()]),
    "empty": BindingTable(()),
}


@pytest.mark.parametrize("bearer", sorted(TABLE_BEARERS))
@pytest.mark.parametrize("table", sorted(WIRE_TABLES))
def test_packed_table_crosses_the_frame_in_every_payload(bearer, table):
    """``pack → encode_frame → decode_frame → intern`` gives the
    receiver the sender's id table up to dictionary renaming."""
    terms = WIRE_TABLES[table]
    sender, receiver = TermDictionary(), TermDictionary()
    receiver.encode(URI("http://example.org/skew"))  # ids never coincide
    ids = encode_cells(terms, sender)
    build, table_of = TABLE_BEARERS[bearer]
    payload = build(EncodedTable.of_batch(ids, sender.decode_many))
    frame = encode_frame("msg", encode_message(Message("P1", "P2", payload)))
    kind, body = decode_frame(frame)
    decoded = decode_message(body).payload
    assert kind == "msg" and decoded == payload
    interned = table_of(decoded).intern(receiver)
    assert interned.columns == ids.columns and len(interned) == len(ids)
    assert decode_cells(interned, receiver) == terms


#: ways a hostile or corrupt frame can break an ``EncodedTable`` (3 rows,
#: 2 columns, 6 terms) that still parses as JSON
MALFORMED_TABLES = {
    "ragged-columns": lambda f: f["ids"][1].pop(),
    "missing-column": lambda f: f["ids"].pop(),
    "extra-column": lambda f: f["ids"].append([0, 0, 0]),
    "length-disagrees": lambda f: f.update(length=2),
    "negative-length": lambda f: f.update(columns=[], ids=[], length=-1),
    "id-past-the-terms": lambda f: f["ids"][0].__setitem__(1, 6),
    "negative-id": lambda f: f["ids"][1].__setitem__(2, -1),
    "fractional-id": lambda f: f["ids"][0].__setitem__(0, 1.5),
    "textual-id": lambda f: f["ids"][0].__setitem__(0, "0"),
}


@pytest.mark.parametrize("damage", sorted(MALFORMED_TABLES))
def test_malformed_table_is_rejected_where_the_frame_is(damage):
    """A table that is not rectangular, or whose cells do not name its
    own terms, is a ``CodecError`` at decode time — not an
    ``IndexError`` (or a silently aliased term) inside the receiving
    peer's ``on_data``, past the handler that drops a corrupt link."""
    payload = DataPacket("ch-1", ((0, EncodedTable.of_terms(sample_table())),))
    body = json.loads(json.dumps(encode_message(Message("P1", "P2", payload))))
    assert decode_message(body).payload == payload
    (entry,) = body["payload"]["f"]["tables"]["$t"]
    MALFORMED_TABLES[damage](entry["$t"][1]["f"])
    with pytest.raises(CodecError):
        decode_message(body)


def _shipment_bodies():
    """The JSON bodies of a two-subplan ``SubPlanPacket`` (sites under
    both outputs, a narrowed header for each) and of its two-table
    ``DataPacket`` reply, whose tables share some of their terms."""
    pattern = paper_query_pattern(paper_schema())
    plans = (
        Join([Scan((pattern.root,), "P2"), Scan((pattern.patterns[1],), "P3")]),
        Scan((pattern.root,), "P2"),
    )
    sites = {(0, 1): "P3", (1,): "P2"}
    sub = SubPlanPacket("ch-1", plans, sites, "P1", "q1", (("X", "Z"), ("Y",)))
    table = EncodedTable.of_terms(sample_table())
    other = EncodedTable.of_terms(BindingTable(("Y",), [(Literal("x"),), (Literal(9),)]))
    data = DataPacket("ch-1", ((0, table), (1, other)))
    # one term list: the shared literal is named once
    assert len(data.terms) == 7 and all(t.terms is data.terms for _, t in data.tables)
    bodies = []
    for payload in (sub, data):
        body = json.loads(json.dumps(encode_message(Message("P1", "P2", payload))))
        assert decode_message(body).payload == payload
        bodies.append(body)
    return bodies


def _site_key(body, index):
    return body["payload"]["f"]["sites"]["$d"][index][0]["$t"]


def _table_entry(body, index):
    return body["payload"]["f"]["tables"]["$t"][index]["$t"]


def _header(body, index):
    return body["payload"]["f"]["columns"]["$t"][index]["$t"]


def _packet_id(body, table, column, row, value):
    """Overwrite one cell of a packet's table (``value`` may read the
    packet's term count)."""
    terms = len(body["payload"]["f"]["terms"])
    ids = _table_entry(body, table)[1]["f"]["ids"]
    ids[column][row] = value(terms)


#: ways a hostile or corrupt frame can break the per-destination packet
#: shape: (0 = the SubPlanPacket, 1 = the DataPacket, how to damage it)
MALFORMED_SHIPMENTS = {
    "no-subplans": (0, lambda b: b["payload"]["f"]["plans"].update({"$t": []})),
    "site-output-past-the-plans": (0, lambda b: _site_key(b, 0).__setitem__(0, 2)),
    "site-output-negative": (0, lambda b: _site_key(b, 1).__setitem__(0, -1)),
    "site-output-fractional": (0, lambda b: _site_key(b, 1).__setitem__(0, 0.5)),
    "site-without-an-output": (0, lambda b: _site_key(b, 1).clear()),
    "table-output-negative": (1, lambda b: _table_entry(b, 0).__setitem__(0, -1)),
    "table-output-textual": (1, lambda b: _table_entry(b, 1).__setitem__(0, "1")),
    "same-output-twice": (1, lambda b: _table_entry(b, 1).__setitem__(0, 0)),
    "table-without-an-output": (1, lambda b: _table_entry(b, 1).pop(0)),
    "header-column-the-subplan-does-not-bind": (
        0, lambda b: _header(b, 1).__setitem__(0, "Z")
    ),
    "header-column-twice": (0, lambda b: _header(b, 0).__setitem__(1, "X")),
    "header-column-not-a-string": (0, lambda b: _header(b, 0).__setitem__(1, 7)),
    "header-not-a-tuple": (
        0, lambda b: b["payload"]["f"]["columns"]["$t"].__setitem__(0, ["X"])
    ),
    "more-headers-than-subplans": (
        0, lambda b: b["payload"]["f"]["columns"]["$t"].append({"$t": ["X"]})
    ),
    "id-past-the-packet-terms": (1, lambda b: _packet_id(b, 1, 0, 1, lambda n: n)),
    "id-negative": (1, lambda b: _packet_id(b, 0, 1, 2, lambda n: -1)),
    "table-not-an-object": (1, lambda b: _table_entry(b, 0).__setitem__(1, [])),
    "terms-not-a-list": (1, lambda b: b["payload"]["f"].__setitem__("terms", 7)),
}


@pytest.mark.parametrize("damage", sorted(MALFORMED_SHIPMENTS))
def test_malformed_shipment_is_rejected_where_the_frame_is(damage):
    """An output index that names nothing the packet carries — in a
    site key or on a table —, a header the subplan cannot answer, or a
    cell naming no term of its packet is a ``CodecError`` at decode
    time, not an ``IndexError`` (or an output aliased from the end) in
    the handler.
    How many outputs a *channel* has only its root knows: a table index
    past them is refused in ``ChannelManager.on_data``
    (``tests/channels/test_wire_shape.py``)."""
    which, damage_it = MALFORMED_SHIPMENTS[damage]
    body = _shipment_bodies()[which]
    damage_it(body)
    with pytest.raises(CodecError):
        decode_message(body)


def test_delivery_failure_nests_original():
    original = Message("P1", "P2", QuerySubmit("q9", "SELECT ...", "client1"))
    decoded = round_trip(DeliveryFailure(original), src="_net", dst="P1")
    assert decoded.original.src == "P1"
    assert decoded.original.dst == "P2"
    assert decoded.original.payload == original.payload


def test_trace_context_rides_the_envelope():
    message = Message("P1", "P2", Goodbye("P1"),
                      trace=TraceContext("t-1", "s-1"))
    fields = json.loads(json.dumps(encode_message(message)))
    decoded = decode_message(fields)
    assert decoded.trace == TraceContext("t-1", "s-1")


def test_decoded_message_draws_fresh_local_id():
    message = Message("P1", "P2", Goodbye("P1"))
    decoded = decode_message(encode_message(message))
    assert decoded.id != message.id  # local identity never crosses the wire


def test_unknown_dataclass_fields_are_ignored():
    fields = encode_payload(Goodbye("P2"))
    fields["f"]["introduced_in_a_future_version"] = {"nested": [1, 2]}
    assert decode_payload(fields) == Goodbye("P2")


def test_unknown_message_envelope_keys_are_ignored():
    fields = encode_message(Message("P1", "P2", Goodbye("P1")))
    fields["future_envelope_extension"] = True
    assert decode_message(fields).payload == Goodbye("P1")


def test_unknown_kind_raises():
    with pytest.raises(CodecError):
        decode_payload({"$k": "NotARegisteredPayload", "f": {}})


def test_unencodable_object_raises():
    class Mystery:
        pass

    with pytest.raises(CodecError):
        encode_payload(Mystery())


def test_frame_envelope():
    data = encode_frame("hello", {"nodes": ["P1"], "addr": ["127.0.0.1", 9]})
    kind, body = decode_frame(data)
    assert kind == "hello"
    assert body == {"nodes": ["P1"], "addr": ["127.0.0.1", 9]}
    with pytest.raises(CodecError):
        decode_frame(b"not json")
    with pytest.raises(CodecError):
        decode_frame(json.dumps({"body": {}}).encode())
