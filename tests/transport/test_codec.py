"""Round-trip tests for the wire codec over every message kind.

The canonical-form property these tests lean on: ``encode_message``
omits process-local identity (the message id), so decode→re-encode is
byte-identical — the equality the live transport's differential
validation is built on.
"""

import json

import pytest

from repro.core import build_plan, optimize, route_query
from repro.core.algebra import Hole, Join, PlanNode, Scan, Union
from repro.channels.packets import (
    ChangePlanPacket,
    DataPacket,
    SubPlanPacket,
)
from repro.errors import CodecError
from repro.execution.encoded import EncodedTable
from repro.livedata.updates import DeleteTriple, InsertTriple, RedefineViews, UpdateBatch
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
from repro.rdf.triple import Triple
from repro.resilience.partial import Coverage
from repro.rql.bindings import BindingTable
from repro.rvl import ActiveSchema
from repro.transport.codec import (
    decode_as,
    decode_frame,
    decode_message,
    encode_as,
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
from ..records import field, position, set_field


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
        table = EncodedTable.of_terms(BindingTable(("X",), [(term,)]))
        wire = json.loads(json.dumps(encode_as(EncodedTable, table)))
        assert decode_as(EncodedTable, wire).terms == (term,)


def test_query_submit_round_trip():
    payload = QuerySubmit("q1", "SELECT X FROM ...", "client1",
                          max_peers=2, limit=10, order_by="X", descending=True,
                          resubmits=True)
    assert round_trip(payload) == payload


@pytest.mark.parametrize("flag", [1, 0, "true", None, []])
def test_a_resubmit_flag_that_is_not_a_bool_is_rejected(flag):
    submit = QuerySubmit("q1", "SELECT ...", "C", resubmits=True)
    body = json.loads(json.dumps(encode_message(Message("C", "P1", submit))))
    set_field(body, "resubmits", flag)
    with pytest.raises(CodecError):
        decode_message(body)


@pytest.mark.parametrize("name, value", [
    ("text", 5), ("limit", "ten"), ("query_id", [1, 2]), ("max_peers", True),
    ("order_by", 1.5), ("descending", "false"),
])
def test_a_field_of_another_type_than_its_annotation_is_rejected(name, value):
    """Every field is checked against its annotation where the frame is,
    not left to raise ``TypeError`` inside the handler (a bool is not
    an int)."""
    submit = QuerySubmit("q1", "SELECT ...", "C", 2, 10, "X", True, True)
    body = json.loads(json.dumps(encode_message(Message("C", "P1", submit))))
    assert decode_message(body).payload == submit
    set_field(body, name, value)
    with pytest.raises(CodecError):
        decode_message(body)


def test_query_result_with_coverage_round_trip(annotated):
    coverage = Coverage(
        answered=(annotated.query_pattern.patterns[0].label,),
        unanswered=tuple(p.label for p in annotated.query_pattern.patterns[1:]),
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
                          visited=("P1", "P2"), conditions_text="X > 3", token="P1:4")
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
    decoded = decode_as(PlanNode, json.loads(json.dumps(encode_as(PlanNode, tree))))
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
        "q4", EncodedTable.of_terms(sample_table()), "P2", None, token="P2:2"
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


#: a table record's positions: ``[columns, ids, length]``
COLUMNS, IDS, LENGTH = 0, 1, 2

#: ways a hostile or corrupt frame can break an ``EncodedTable`` (3 rows,
#: 2 columns, 6 terms) that still parses as JSON
MALFORMED_TABLES = {
    "ragged-columns": lambda f: f[IDS][1].pop(),
    "missing-column": lambda f: f[IDS].pop(),
    "extra-column": lambda f: f[IDS].append([0, 0, 0]),
    "length-disagrees": lambda f: f.__setitem__(LENGTH, 2),
    "negative-length": lambda f: f.__setitem__(slice(COLUMNS, LENGTH + 1), [[], [], -1]),
    "id-past-the-terms": lambda f: f[IDS][0].__setitem__(1, 6),
    "negative-id": lambda f: f[IDS][1].__setitem__(2, -1),
    "fractional-id": lambda f: f[IDS][0].__setitem__(0, 1.5),
    "textual-id": lambda f: f[IDS][0].__setitem__(0, "0"),
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
    (entry,) = field(body, "tables")
    MALFORMED_TABLES[damage](entry[1])
    with pytest.raises(CodecError):
        decode_message(body)


def _shipment_bodies():
    """The JSON bodies of a two-subplan ``SubPlanPacket`` (sites under
    both outputs, a narrowed header for each) and of its two-table
    ``DataPacket`` reply, whose tables share some of their terms."""
    schema = paper_schema()
    pattern = paper_query_pattern(schema)
    plans = (
        Join([Scan((pattern.root,), "P2"), Scan((pattern.patterns[1],), "P3")]),
        Scan((pattern.root,), "P2"),
    )
    sites = {(0, 1): "P3", (1,): "P2"}
    sub = SubPlanPacket(
        "ch-1", plans, sites, "P1", "q1", (("X", "Z"), ("Y",)), retransmits=True,
        schema=schema,
    )
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
    return field(body, "sites")[index][0]


def _table_entry(body, index):
    return field(body, "tables")[index]


def _terms(body):
    """A packet's term list, right after its kind name."""
    return body["payload"][1]


def _uri_entry(body):
    """The first URI of a packet's term list: ``[namespace index, local
    part]``."""
    return next(entry for entry in _terms(body)["t"] if type(entry[0]) is int)


def _header(body, index):
    return field(body, "columns")[index]


def _packet_id(body, table, column, row, value):
    """Overwrite one cell of a packet's table (``value`` may read the
    packet's term count)."""
    terms = len(_terms(body)["t"])
    ids = _table_entry(body, table)[1][IDS]
    ids[column][row] = value(terms)


#: ways a hostile or corrupt frame can break the per-destination packet
#: shape: (0 = the SubPlanPacket, 1 = the DataPacket, how to damage it)
MALFORMED_SHIPMENTS = {
    "no-subplans": (0, lambda b: field(b, "plans").clear()),
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
    "header-not-a-tuple": (0, lambda b: field(b, "columns").__setitem__(0, "X")),
    "more-headers-than-subplans": (0, lambda b: field(b, "columns").append(["X"])),
    "id-past-the-packet-terms": (1, lambda b: _packet_id(b, 1, 0, 1, lambda n: n)),
    "id-negative": (1, lambda b: _packet_id(b, 0, 1, 2, lambda n: -1)),
    "table-not-an-object": (1, lambda b: _table_entry(b, 0).__setitem__(1, [])),
    "terms-not-a-list": (1, lambda b: b["payload"].__setitem__(1, 7)),
    "terms-without-namespaces": (1, lambda b: _terms(b).pop("ns")),
    "namespace-index-past-the-table": (1, lambda b: _uri_entry(b).__setitem__(0, 1)),
    "namespace-index-negative": (1, lambda b: _uri_entry(b).__setitem__(0, -1)),
    "namespace-index-a-bool": (1, lambda b: _uri_entry(b).__setitem__(0, False)),
    "namespace-index-textual": (1, lambda b: _uri_entry(b).__setitem__(0, "0")),
    "namespace-index-fractional": (1, lambda b: _uri_entry(b).__setitem__(0, 0.0)),
    "local-part-not-a-string": (1, lambda b: _uri_entry(b).__setitem__(1, 7)),
    "uri-entry-too-long": (1, lambda b: _uri_entry(b).append("x")),
    "namespaces-not-a-list": (1, lambda b: _terms(b).__setitem__("ns", "http://")),
    "namespace-not-a-string": (1, lambda b: _terms(b)["ns"].__setitem__(0, 7)),
    "entry-rebuilds-an-empty-uri": (
        1, lambda b: (_terms(b)["ns"].__setitem__(0, ""), _uri_entry(b).__setitem__(1, ""))
    ),
    "entry-not-a-term": (1, lambda b: _terms(b)["t"].__setitem__(0, 7)),
    "retransmit-flag-an-integer": (0, lambda b: set_field(b, "retransmits", 1)),
    "retransmit-flag-textual": (0, lambda b: set_field(b, "retransmits", "false")),
    "retransmit-flag-null": (0, lambda b: set_field(b, "retransmits", None)),
}


@pytest.mark.parametrize("damage", sorted(MALFORMED_SHIPMENTS))
def test_malformed_shipment_is_rejected_where_the_frame_is(damage):
    """An output index that names nothing the packet carries — in a
    site key or on a table —, a header the subplan cannot answer, a
    cell naming no term of its packet, or a retransmit flag that is not
    a bool is a ``CodecError`` at decode
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


def _routing_bodies():
    """The JSON bodies of the paper query's ``RouteRequest``, of its
    ``RouteReply`` (P4 annotates Q1 with a rewritten pattern, every
    other annotation is the query's own) and of a one-scan
    ``SubPlanPacket``, each naming the schema by fingerprint."""
    schema = paper_schema()
    pattern = paper_query_pattern(schema)
    annotated = route_query(pattern, paper_active_schemas(schema).values(), schema)
    payloads = (
        RouteRequest("q1", pattern, "P1"),
        RouteReply("q1", annotated),
        SubPlanPacket("ch-1", (Scan(pattern.patterns[:2], "P2"),), schema=schema),
    )
    bodies = []
    for payload in payloads:
        body = json.loads(json.dumps(encode_message(Message("P1", "SP1", payload))))
        decoded = decode_message(body, [paper_schema()]).payload
        assert encode_payload(decoded) == body["payload"]
        bodies.append(body)
    return bodies


def _query(body):
    """A request's pattern record: ``[fingerprint, [record, ...],
    projections]``."""
    return field(body, "pattern")


def _path(body, index=0):
    """The ``index``-th path pattern record of a request: ``[label,
    domain, property, range, subject, object, projected]``."""
    return _query(body)[1][index]


def _annotated(body):
    """A reply's ``[[index, [[peer, exact(, record)], ...]], ...]``."""
    return field(body, "annotated")[1]


def _scan(body):
    """A shipment's first scan: ``[peer, [record, ...]]``."""
    return field(body, "plans")[0][1]


#: ways a hostile or corrupt frame can break a pattern sent by reference
#: to its schema: (0 = the RouteRequest, 1 = the RouteReply, 2 = the
#: SubPlanPacket, how to damage it)
MALFORMED_PATTERNS = {
    "unknown-fingerprint": (0, lambda b: _query(b).__setitem__(0, "A" * 43)),
    "fingerprint-not-a-string": (0, lambda b: _query(b).__setitem__(0, 7)),
    "unknown-fingerprint-of-a-reply": (
        1, lambda b: field(b, "annotated")[0].__setitem__(0, "B" * 43)
    ),
    "unknown-fingerprint-of-a-shipment": (2, lambda b: set_field(b, "schema", "C" * 43)),
    "term-id-past-the-schema": (0, lambda b: _path(b).__setitem__(2, 10**6)),
    "term-id-negative": (0, lambda b: _path(b).__setitem__(1, -1)),
    "term-id-a-bool": (0, lambda b: _path(b).__setitem__(3, True)),
    "term-id-fractional": (0, lambda b: _path(b).__setitem__(1, 1.0)),
    "term-id-a-list": (0, lambda b: _path(b).__setitem__(2, [1])),
    "term-id-null": (0, lambda b: _path(b).__setitem__(2, None)),
    "term-empty-uri": (0, lambda b: _path(b).__setitem__(2, "")),
    "scan-term-id-past-the-schema": (2, lambda b: _scan(b)[1][1].__setitem__(2, 99)),
    "scan-term-id-negative": (2, lambda b: _scan(b)[1][0].__setitem__(3, -2)),
    "rewritten-term-id-negative": (
        1, lambda b: _annotated(b)[0][1][2][2].__setitem__(1, -1)
    ),
    "record-too-short": (0, lambda b: _path(b).pop()),
    "record-too-long": (0, lambda b: _path(b).append([])),
    "record-not-a-list": (0, lambda b: _query(b)[1].__setitem__(0, "Q1")),
    "scan-record-too-short": (2, lambda b: _scan(b)[1][0].pop(0)),
    "rewritten-record-too-long": (1, lambda b: _annotated(b)[0][1][2][2].append(0)),
    "query-record-too-short": (0, lambda b: _query(b).pop()),
    "query-without-patterns": (0, lambda b: _query(b).__setitem__(1, [])),
    "label-not-a-string": (0, lambda b: _path(b).__setitem__(0, 1)),
    "subject-variable-not-a-string": (0, lambda b: _path(b).__setitem__(4, 3)),
    "object-variable-not-a-string": (2, lambda b: _scan(b)[1][0].__setitem__(5, ["Y"])),
    "projected-not-a-list": (0, lambda b: _path(b).__setitem__(6, "X")),
    "projected-variable-not-a-string": (0, lambda b: _path(b)[6].__setitem__(0, None)),
    "projections-not-strings": (0, lambda b: _query(b).__setitem__(2, [1])),
    "scan-site-not-a-string": (2, lambda b: _scan(b).__setitem__(0, 5)),
    "scan-not-a-record": (2, lambda b: field(b, "plans")[0].__setitem__(1, 5)),
    "plan-node-of-no-known-kind": (
        2, lambda b: field(b, "plans")[0].__setitem__(0, "Project")
    ),
    "annotation-index-past-the-patterns": (1, lambda b: _annotated(b)[0].__setitem__(0, 2)),
    "annotation-index-negative": (1, lambda b: _annotated(b)[1].__setitem__(0, -1)),
    "annotation-index-a-bool": (1, lambda b: _annotated(b)[1].__setitem__(0, True)),
    "annotation-index-textual": (1, lambda b: _annotated(b)[0].__setitem__(0, "0")),
    "annotation-entry-too-short": (1, lambda b: _annotated(b)[0].pop()),
    "annotation-record-too-short": (1, lambda b: _annotated(b)[0][1][0].pop()),
    "annotation-peer-not-a-string": (1, lambda b: _annotated(b)[0][1][0].__setitem__(0, 4)),
    "annotation-exact-not-a-bool": (1, lambda b: _annotated(b)[0][1][0].__setitem__(1, 1)),
}


@pytest.mark.parametrize("damage", sorted(MALFORMED_PATTERNS))
def test_malformed_pattern_is_rejected_where_the_frame_is(damage):
    """A schema fingerprint the receiver does not hold, a term id that
    names no term of the schema, a record of the wrong arity, a label
    or variable that is not a string or an annotation index naming no
    pattern is a ``CodecError`` — the one exception the live reader
    catches — never a ``TypeError`` or ``IndexError`` that would kill
    the reader task."""
    which, damage_it = MALFORMED_PATTERNS[damage]
    body = _routing_bodies()[which]
    damage_it(body)
    with pytest.raises(CodecError):
        decode_message(body, [paper_schema()])


def test_patterns_resolve_to_the_receivers_own_schema():
    """The decoded pattern is over the schema the receiver holds — its
    own object, found by fingerprint — and the frame names the schema
    once, whatever its size, and each elided annotation by its peer."""
    sender, receiver = paper_schema(), paper_schema()
    assert sender is not receiver and sender.fingerprint == receiver.fingerprint
    request, reply, shipment = _routing_bodies()
    decoded = [decode_message(body, [receiver]).payload for body in (request, reply, shipment)]
    assert decoded[0].pattern.schema is receiver
    assert decoded[1].annotated.query_pattern.schema is receiver
    assert decoded[2].schema is receiver
    annotations = _annotated(reply)
    assert [len(entry) for _, entries in annotations for entry in entries] == [2, 2, 3, 2, 2, 2]
    # a receiver holding only another schema knows none of them
    other = paper_schema()
    other.add_class(URI("http://example.org/another#C"))
    for body in (request, reply, shipment):
        with pytest.raises(CodecError):
            decode_message(body, [other])


def test_a_shipment_without_a_schema_writes_its_patterns_whole(plan):
    """A ``SubPlanPacket`` built without its schema still crosses: each
    path pattern record carries its URIs, and no fingerprint is
    needed to read it."""
    sub = SubPlanPacket("ch-1", (plan,), {}, "P1", "q3")
    body = json.loads(json.dumps(encode_message(Message("P1", "P2", sub))))
    assert len(body["payload"]) <= position(SubPlanPacket, "schema")
    decoded = decode_message(body, []).payload
    assert decoded == sub and decoded.schema is None


def _batch_body():
    """The JSON body of an ``UpdateBatch``: an insert and a delete that
    share a subject, and a view redefinition."""
    s, p, o = (URI(f"http://example.org/d#{name}") for name in ("s", "p", "o"))
    batch = UpdateBatch("P2", 4, (
        InsertTriple(Triple(s, p, o)),
        DeleteTriple(Triple(s, p, Literal("x", language="en"))),
        RedefineViews(()),
    ))
    body = json.loads(json.dumps(encode_message(Message("I", "P2", batch))))
    assert decode_message(body).payload == batch
    # one term list: the shared subject and predicate are named once
    assert body["payload"][1]["ns"] == ["http://example.org/d#"]
    assert field(body, "updates")[:2] == [["+", 0, 1, 2], ["-", 0, 1, 3]]
    return body


def _record(body, index):
    return field(body, "updates")[index]


#: ways a hostile or corrupt frame can break an ``UpdateBatch``
MALFORMED_BATCHES = {
    "unknown-record-kind": lambda b: _record(b, 0).__setitem__(0, "*"),
    "record-kind-not-a-string": lambda b: _record(b, 0).__setitem__(0, ["+"]),
    "empty-record": lambda b: _record(b, 0).clear(),
    "record-too-short": lambda b: _record(b, 1).pop(),
    "id-past-the-batch-terms": lambda b: _record(b, 0).__setitem__(3, 4),
    "id-negative": lambda b: _record(b, 1).__setitem__(1, -1),
    "id-a-bool": lambda b: _record(b, 1).__setitem__(1, True),
    "predicate-not-a-uri": lambda b: _record(b, 0).__setitem__(2, 3),
    "record-another-payload": lambda b: field(b, "updates").__setitem__(
        2, encode_payload(Goodbye("P2"))
    ),
    "terms-not-a-term-list": lambda b: b["payload"].__setitem__(1, []),
    "updates-missing": lambda b: b["payload"].pop(position(UpdateBatch, "updates")),
}


@pytest.mark.parametrize("damage", sorted(MALFORMED_BATCHES))
def test_malformed_update_batch_is_rejected_where_the_frame_is(damage):
    """A triple record that names no term of its batch, is of no known
    kind or has a non-URI predicate is a ``CodecError`` at decode time,
    not an ``IndexError`` inside the peer applying the batch."""
    body = _batch_body()
    MALFORMED_BATCHES[damage](body)
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
    fields.append({"introduced_in_a_future_version": [1, 2]})
    assert decode_payload(fields) == Goodbye("P2")


def test_unknown_message_envelope_keys_are_ignored():
    fields = encode_message(Message("P1", "P2", Goodbye("P1")))
    fields["future_envelope_extension"] = True
    assert decode_message(fields).payload == Goodbye("P1")


def test_unknown_kind_raises():
    with pytest.raises(CodecError):
        decode_payload(["NotARegisteredPayload"])


def test_unencodable_object_raises():
    class Mystery:
        pass

    with pytest.raises(CodecError):
        encode_payload(Mystery())


def test_nesting_past_the_stack_is_a_codec_error():
    """A frame of nested brackets, or a plan of nested joins, deeper
    than the interpreter's stack is refused like any other hostile
    frame, not with a ``RecursionError`` the live reader does not
    catch."""
    with pytest.raises(CodecError):
        decode_frame(b'{"kind":"msg","body":' + b"[" * 100_000 + b"]" * 100_000 + b"}")
    plan = ["Scan", ["P2", []]]
    for _ in range(5_000):
        plan = ["Join", [plan]]
    with pytest.raises(CodecError):
        decode_as(PlanNode, plan)


def test_frame_envelope():
    data = encode_frame("hello", {"nodes": ["P1"], "addr": ["127.0.0.1", 9]})
    kind, body = decode_frame(data)
    assert kind == "hello"
    assert body == {"nodes": ["P1"], "addr": ["127.0.0.1", 9]}
    with pytest.raises(CodecError):
        decode_frame(b"not json")
    with pytest.raises(CodecError):
        decode_frame(json.dumps({"body": {}}).encode())
