"""Wire-codec properties: lossless round-trips and forward compatibility.

For every message kind the transport can ship — query control, routing,
advertisements, binding batches, channel packets, fault-plan-tagged
duplicates (``DeliveryFailure`` wrapping the original), trace-stamped
envelopes — ``decode(encode(m))`` must reproduce the payload exactly,
and re-encoding the decoded message must be byte-identical (the
canonical form the sim-vs-live differential validation compares).

Forward compatibility: a decoder must *ignore* fields it does not know,
at every level (message envelope, dataclass payloads, frames), so a
newer peer can talk to an older one.

By reference: a query pattern, an annotated one and a shipment of scans
name their schema by fingerprint and come back over the *receiver's*
own copy of it; and whatever a hostile frame changes in them, decoding
either succeeds or raises ``CodecError`` (for every other payload too).
"""

import dataclasses
import json
from dataclasses import replace
from typing import Optional, get_type_hints

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import DeliveryFailure, Message
from repro.obs import TraceContext
from repro.peers.protocol import (
    AdvertisementRequest,
    DelegatedResult,
    Goodbye,
    QueryResult,
    QueryShed,
    QuerySubmit,
    RouteBusy,
    RouteReply,
    RouteRequest,
)
from repro.channels.packets import ChangePlanPacket, DataPacket, SubPlanPacket
from repro.core.algebra import Join, Scan, Union
from repro.core.annotations import AnnotatedQueryPattern, PeerAnnotation
from repro.errors import CodecError
from repro.execution.encoded import EncodedTable
from repro.livedata.updates import ContinuousUpdate
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import BNode, Literal, URI, Variable
from repro.resilience.partial import Coverage
from repro.rql.bindings import BindingTable, terms_size_bytes
from repro.rql.pattern import PathPattern, QueryPattern, SchemaPath
from repro.transport.codec import (
    decode_frame,
    decode_message,
    decode_payload,
    encode_frame,
    encode_message,
    encode_payload,
)

from repro.workloads.paper import paper_schema

from ..idtables import TABLE_BEARERS, encode_cells
from ..records import written_out

# ----------------------------------------------------------------------
# term and table strategies
# ----------------------------------------------------------------------
peer_ids = st.sampled_from(["P1", "P2", "P3", "SP1", "SP2", "client1"])
query_ids = st.from_regex(r"[A-Za-z0-9_-]{1,12}", fullmatch=True)

safe_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=24
)
uris = st.from_regex(r"[a-z]{1,8}", fullmatch=True).map(
    lambda s: URI(f"http://example.org/{s}")
)
terms = st.one_of(
    uris,
    st.from_regex(r"[a-z0-9]{1,8}", fullmatch=True).map(BNode),
    st.from_regex(r"[A-Z][a-z0-9]{0,6}", fullmatch=True).map(Variable),
    safe_text.map(Literal),
    st.integers(-10**9, 10**9).map(Literal),
    st.booleans().map(Literal),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(Literal),
    st.tuples(safe_text, st.sampled_from(["en", "el", "fr"])).map(
        lambda pair: Literal(pair[0], language=pair[1])
    ),
)


@st.composite
def binding_tables(draw):
    width = draw(st.integers(0, 4))  # zero-column and zero-row included
    columns = tuple(f"V{i}" for i in range(width))
    rows = draw(
        st.lists(st.tuples(*([terms] * width)).map(tuple), max_size=8)
    )
    return BindingTable(columns, rows)


#: a table as a payload carries it: packed over its own terms
packed_tables = binding_tables().map(EncodedTable.of_terms)


@st.composite
def coverages(draw):
    return Coverage(
        answered=(),
        unanswered=(),
        excluded_peers=tuple(draw(st.lists(peer_ids, max_size=3, unique=True))),
        attempts=draw(st.integers(0, 5)),
    )


# ----------------------------------------------------------------------
# payload strategies: one per wire kind this test sweeps
# ----------------------------------------------------------------------
query_submits = st.builds(
    QuerySubmit,
    query_ids,
    safe_text,
    peer_ids,
    max_peers=st.one_of(st.none(), st.integers(1, 5)),
    limit=st.one_of(st.none(), st.integers(1, 100)),
    order_by=st.one_of(st.none(), st.sampled_from(["V0", "V1"])),
    descending=st.booleans(),
)
query_results = st.builds(
    QueryResult,
    query_ids,
    packed_tables,
    st.one_of(st.none(), safe_text),
    st.one_of(st.none(), coverages()),
)
cardinalities = st.dictionaries(safe_text, st.integers(0, 10**4), max_size=4)


def _data_packet(channel_id, table, final, failed_peer, seq, cardinalities=None):
    """The packet a sender ships for ``table``, its statistics aboard."""
    sender = TermDictionary()
    (packet,) = DataPacket.stream(
        channel_id,
        [encode_cells(table, sender)],
        sender,
        max(1, len(table)),
        cardinalities,
    )
    return replace(packet, final=final, failed_peer=failed_peer, seq=seq)


data_packets = st.builds(
    _data_packet,
    query_ids,
    binding_tables(),
    final=st.booleans(),
    failed_peer=st.one_of(st.none(), peer_ids),
    seq=st.integers(0, 1000),
    cardinalities=cardinalities,
)
simple_payloads = st.one_of(
    st.builds(QueryShed, query_ids, st.floats(0, 1000), peer_ids),
    st.builds(RouteBusy, query_ids, st.floats(0, 1000), peer_ids),
    st.builds(AdvertisementRequest, peer_ids, depth=st.integers(1, 3)),
    st.builds(Goodbye, peer_ids),
    st.builds(ChangePlanPacket, query_ids, safe_text),
    st.builds(
        DelegatedResult,
        query_ids,
        packed_tables,
        peer_ids,
        st.one_of(st.none(), safe_text),
        token=st.integers(0, 9).map(lambda i: f"P2:{i}"),
    ),
    st.builds(
        ContinuousUpdate, query_ids, packed_tables, packed_tables, st.integers(0, 99)
    ),
)
payloads = st.one_of(query_submits, query_results, data_packets, simple_payloads)

traces = st.one_of(
    st.none(),
    st.builds(
        TraceContext,
        st.from_regex(r"t-[0-9a-f]{1,8}", fullmatch=True),
        st.from_regex(r"s-[0-9a-f]{1,8}", fullmatch=True),
    ),
)


@st.composite
def messages(draw, payload_strategy=payloads):
    return Message(
        draw(peer_ids),
        draw(peer_ids),
        draw(payload_strategy),
        trace=draw(traces),
    )


def wire_round_trip(message):
    """Encode → JSON text (the actual wire) → decode."""
    fields = json.loads(json.dumps(encode_message(message)))
    return fields, decode_message(fields)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@given(messages())
@settings(max_examples=200, deadline=None)
def test_messages_round_trip_losslessly(message):
    fields, decoded = wire_round_trip(message)
    assert decoded.src == message.src
    assert decoded.dst == message.dst
    assert decoded.trace == message.trace
    assert type(decoded.payload) is type(message.payload)
    if isinstance(message.payload, (QueryResult, DelegatedResult)):
        assert decoded.payload.table == message.payload.table
        for field in ("query_id", "error", "coverage", "final", "failed_peer",
                      "seq", "from_peer", "token"):
            if hasattr(message.payload, field):
                assert getattr(decoded.payload, field) == getattr(
                    message.payload, field
                )
    else:
        assert decoded.payload == message.payload


@given(messages())
@settings(max_examples=200, deadline=None)
def test_canonical_form_is_stable(message):
    """decode → re-encode reproduces the exact wire fields."""
    fields, decoded = wire_round_trip(message)
    assert encode_message(decoded) == fields


@given(messages(), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_fault_plan_tagged_duplicates_round_trip(message, depth):
    """DeliveryFailure wrapping (possibly nested) originals — the shape
    fault plans and bounces put on the wire — survives the codec."""
    wrapped = message
    for _ in range(depth):
        wrapped = Message("_net", wrapped.src, DeliveryFailure(wrapped))
    fields, decoded = wire_round_trip(wrapped)
    assert encode_message(decoded) == fields
    inner = decoded.payload
    for _ in range(depth - 1):
        inner = inner.original.payload
    assert isinstance(inner, DeliveryFailure)
    assert type(inner.original.payload) is type(message.payload)


@given(messages(), st.from_regex(r"[a-z_]{1,12}", fullmatch=True))
@settings(max_examples=100, deadline=None)
def test_unknown_fields_are_ignored_everywhere(message, field_name):
    """A decoder must skip fields added by future versions: keys on the
    envelope, and positions past every field of today's payload kind."""
    fields, _ = wire_round_trip(message)
    fields[f"future_{field_name}"] = {"anything": [1, "x"]}
    written_out(fields["payload"]).append({f"future_{field_name}": 123})
    decoded = decode_message(fields)
    assert type(decoded.payload) is type(message.payload)


@given(st.lists(terms, min_size=0, max_size=12))
@settings(max_examples=100, deadline=None)
def test_every_term_survives_a_binding_batch(term_list):
    """Any term in any binding-batch cell round-trips exactly: the
    decoded packet's terms map its cells back to the same terms."""
    table = BindingTable(("V0",), [(term,) for term in term_list])
    packet = _data_packet("ch-1", table, final=False, failed_peer=None, seq=0)
    decoded = decode_payload(json.loads(json.dumps(encode_payload(packet))))
    assert decoded == packet
    ((_, shipped),) = decoded.tables
    (column,) = shipped.ids
    assert [shipped.terms[position] for position in column] == term_list


#: terms as a term list meets them: URIs over several namespaces (an
#: empty local part, a ``#`` inside a path), URIs with no ``#`` or
#: ``/``, literals with a datatype or a language tag, blank nodes
namespaced_uris = st.tuples(
    st.sampled_from([
        "http://example.org/a#", "http://example.org/b/", "http://x.org/p#q/",
        "urn:x:y/", "#",
    ]),
    st.from_regex(r"[A-Za-z0-9_.:-]{0,6}", fullmatch=True),
).map(lambda pair: URI("".join(pair)))
wire_terms = st.one_of(
    namespaced_uris,
    st.from_regex(r"[a-z]{1,6}:[a-z0-9:]{1,6}", fullmatch=True).map(URI),
    st.tuples(safe_text, namespaced_uris).map(
        lambda pair: Literal(pair[0], datatype=pair[1])
    ),
    st.tuples(safe_text, st.sampled_from(["en", "el", "fr"])).map(
        lambda pair: Literal(pair[0], language=pair[1])
    ),
    st.integers(-10**6, 10**6).map(Literal),
    st.from_regex(r"[a-z0-9]{1,8}", fullmatch=True).map(BNode),
)


@given(st.lists(wire_terms, max_size=16), st.sampled_from(sorted(TABLE_BEARERS)))
@settings(max_examples=200, deadline=None)
def test_term_lists_round_trip_and_never_cost_more_than_their_renderings(
    term_list, bearer
):
    """A term list crosses as a namespace table plus local names and
    comes back exactly, in order, in every table-bearing payload; and
    its modelled size never exceeds each distinct term's full
    rendering."""
    table = BindingTable(("V0",), [(term,) for term in term_list])
    build, table_of = TABLE_BEARERS[bearer]
    payload = build(EncodedTable.of_terms(table))
    frame = encode_frame("msg", encode_message(Message("P1", "P2", payload)))
    shipped = table_of(decode_message(decode_frame(frame)[1]).payload)
    sent = table_of(payload)
    assert shipped.terms == sent.terms == tuple(dict.fromkeys(term_list))
    assert [type(t) for t in shipped.terms] == [type(t) for t in sent.terms]
    assert shipped.to_terms() == table
    assert terms_size_bytes(sent.terms) <= sum(len(t.n3()) for t in sent.terms)


@given(binding_tables(), st.sampled_from(sorted(TABLE_BEARERS)))
@settings(max_examples=100, deadline=None)
def test_packed_table_interns_to_the_senders_table(table, bearer):
    """``pack → encode_frame → decode_frame → intern``: the receiver's
    id table is the sender's up to dictionary renaming, for all four
    table-bearing payloads."""
    sender, receiver = TermDictionary(), TermDictionary()
    receiver.encode(URI("http://example.org/skew"))
    ids = encode_cells(table, sender)
    build, table_of = TABLE_BEARERS[bearer]
    payload = build(EncodedTable.of_batch(ids, sender.decode_many))
    frame = encode_frame("msg", encode_message(Message("P1", "P2", payload)))
    decoded = decode_message(decode_frame(frame)[1]).payload
    interned = table_of(decoded).intern(receiver)
    assert interned.columns == ids.columns and len(interned) == len(ids)
    renaming = {}
    for name in ids.columns:
        for sent, received in zip(ids.data[name], interned.data[name], strict=True):
            assert renaming.setdefault(sent, received) == received
            assert receiver.decode(received) == sender.decode(sent)
    assert len(set(renaming.values())) == len(renaming)  # injective


@given(
    st.sampled_from(["msg", "hello", "book", "bye", "a_future_kind"]),
    st.dictionaries(
        st.from_regex(r"[a-z]{1,8}", fullmatch=True),
        st.one_of(st.integers(), safe_text, st.lists(st.integers(), max_size=3)),
        max_size=4,
    ),
)
@settings(max_examples=100, deadline=None)
def test_frames_round_trip_and_tolerate_extras(kind, body):
    data = encode_frame(kind, body)
    decoded_kind, decoded_body = decode_frame(data)
    assert decoded_kind == kind
    assert decoded_body == body
    # extra envelope keys from a future version are ignored
    extended = json.loads(data.decode())
    extended["future_header"] = 7
    decoded_kind, decoded_body = decode_frame(json.dumps(extended).encode())
    assert (decoded_kind, decoded_body) == (kind, body)


# ----------------------------------------------------------------------
# patterns by reference to their schema
# ----------------------------------------------------------------------
#: the sender's schema, and the receiver's own copy of it
SENDER, RECEIVER = paper_schema(), paper_schema()
#: any term of the schema, or a URI it does not declare (written whole)
schema_terms = st.one_of(
    st.sampled_from(SENDER.terms), uris, st.just(URI("http://example.org/n1#C9"))
)
variables = st.sampled_from(["X", "Y", "Z", "W"])


@st.composite
def path_patterns(draw, label):
    subject = draw(st.one_of(st.none(), variables))
    object_ = draw(st.one_of(st.none(), variables))
    bound = sorted({v for v in (subject, object_) if v})
    projected = draw(st.lists(st.sampled_from(bound), unique=True)) if bound else []
    path = SchemaPath(draw(schema_terms), draw(schema_terms), draw(schema_terms))
    return PathPattern(label, path, subject, object_, tuple(projected))


@st.composite
def query_patterns(draw):
    count = draw(st.integers(1, 4))
    patterns = [draw(path_patterns(f"Q{i}")) for i in range(1, count + 1)]
    projections = draw(st.lists(variables, unique=True, max_size=3))
    return QueryPattern(patterns, tuple(projections), SENDER)


@st.composite
def annotated_patterns(draw):
    """Each pattern annotated by up to four peers, each exactly (the
    query's own pattern) or with a rewritten one."""
    query = draw(query_patterns())
    annotated = AnnotatedQueryPattern(query)
    for pattern in query:
        for peer in draw(st.lists(peer_ids, unique=True, max_size=4)):
            rewritten = pattern if draw(st.booleans()) else draw(path_patterns(pattern.label))
            annotated.annotate(pattern, PeerAnnotation(peer, rewritten, draw(st.booleans())))
    return annotated


@st.composite
def plans(draw, depth=2):
    query = draw(query_patterns())
    if depth == 0 or draw(st.booleans()):
        patterns = draw(st.lists(st.sampled_from(query.patterns), min_size=1, max_size=3))
        return Scan(patterns, draw(peer_ids))
    children = draw(st.lists(plans(depth - 1), min_size=2, max_size=3))
    return draw(st.sampled_from([Join, Union]))(children)


shipments = st.builds(
    lambda plans_, retransmits: SubPlanPacket(
        "P1#4", tuple(plans_), {}, "P1", "q1", retransmits=retransmits, schema=SENDER
    ),
    st.lists(plans(), min_size=1, max_size=3),
    st.booleans(),
)
by_reference = st.one_of(
    st.builds(RouteRequest, query_ids, query_patterns(), peer_ids, hops=st.integers(0, 3)),
    st.builds(RouteReply, query_ids, annotated_patterns()),
    shipments,
)


def schema_of(payload):
    if isinstance(payload, RouteRequest):
        return payload.pattern.schema
    if isinstance(payload, RouteReply):
        return payload.annotated.query_pattern.schema
    return payload.schema


@given(by_reference)
@settings(max_examples=200, deadline=None)
def test_patterns_round_trip_over_the_receivers_schema(payload):
    """``decode(encode(x)) == x`` for query patterns, annotated ones —
    exact and rewritten annotations — and shipments of scan plans, the
    decoded pattern over the receiver's own schema object, and the
    re-encoding canonical."""
    fields = json.loads(json.dumps(encode_message(Message("P1", "SP1", payload))))
    decoded = decode_message(fields, [RECEIVER]).payload
    assert schema_of(decoded) is RECEIVER
    if isinstance(payload, RouteReply):
        assert decoded.annotated.same_annotations(payload.annotated)
        assert decoded.query_id == payload.query_id
    else:
        assert decoded == payload
    assert encode_message(Message("P1", "SP1", decoded)) == fields


def _leaves(value):
    """Every position of a JSON value: ``(container, key)`` pairs."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield value, key
        if isinstance(child, (dict, list)):
            yield from _leaves(child)


hostile_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**6), st.floats(allow_nan=False),
    safe_text, st.lists(st.integers(-1, 3), max_size=3), st.just({}), st.just({"ns": [], "t": 1}),
)


@given(st.one_of(by_reference, payloads), st.data())
@settings(max_examples=400, deadline=None)
def test_a_damaged_payload_decodes_or_raises_codec_error(payload, data):
    """Overwrite any one position of an encoded payload — a pattern sent
    by reference, a table, a packet — with any JSON value: the decoder
    returns a payload or raises ``CodecError``, never another exception
    that would kill a live reader task; and a payload it returns has
    every scalar field of its annotated type."""
    fields = json.loads(json.dumps(encode_message(Message("P1", "SP1", payload))))
    positions = list(_leaves(fields["payload"]))
    container, key = data.draw(st.sampled_from(positions))
    container[key] = data.draw(hostile_values)
    try:
        decoded = decode_message(fields, [RECEIVER]).payload
    except CodecError:
        return
    hints = get_type_hints(type(decoded))
    for field in dataclasses.fields(decoded):
        allowed = SCALARS.get(hints[field.name])
        value = getattr(decoded, field.name)
        assert allowed is None or type(value) in allowed, (field.name, value)


#: scalar annotation -> the types a decoded value of it may have
SCALARS = {
    **{kind: (kind,) for kind in (str, int, float, bool)},
    **{Optional[kind]: (kind, type(None)) for kind in (str, int, float, bool)},
}
