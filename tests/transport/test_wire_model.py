"""The model charges what the codec ships.

``size_bytes()`` is what the simulator's links, the cost model's
shipping decisions and the benchmark's ``wire_bytes_per_query`` count;
the JSON frame is what a live link carries.  For a binding table the
two must tell the same story: one term list — each distinct namespace
once, each term's local part once — and a small constant per cell.
For the control plane too: a query pattern names its schema by
fingerprint and its path patterns by term id, so a routing round trip
or a shipment of scans stays near its modelled size.
"""

import json
from dataclasses import replace
from typing import get_args

import pytest

from repro.channels.packets import ChangePlanPacket, DataPacket, SubPlanPacket
from repro.core import build_plan
from repro.core.algebra import Scan
from repro.core.cost import harvest_stat_summary
from repro.core.routing import route_query
from repro.execution.encoded import EncodedTable
from repro.livedata.updates import (
    ContinuousCancel, ContinuousSubscribe, ContinuousUpdate, DeleteTriple, InsertTriple,
    RedefineViews, RefreshStanding, UpdateAck, UpdateBatch, advertisement_delta,
)
from repro.net.message import DeliveryFailure, Message
from repro.peers.protocol import (
    Advertise, AdvertisementReply, AdvertisementRequest, DelegatedResult, Goodbye,
    PartialPlan, QueryResult, QueryShed, QuerySubmit, RouteBusy, RouteReply, RouteRequest,
)
from repro.rdf import Namespace
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import Literal
from repro.rdf.triple import Triple
from repro.resilience.detector import Heartbeat
from repro.rql.bindings import BindingTable, terms_size_bytes
from repro.rql.pattern import pattern_from_text
from repro.rvl.active_schema import ActiveSchema
from repro.transport.codec import Payload, encode_frame, encode_message
from repro.workloads.data_gen import generate_bases
from repro.workloads.paper import (
    PAPER_QUERY,
    paper_active_schemas,
    paper_peer_bases,
    paper_query_pattern,
    paper_schema,
)
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import generate_schema

DATA = Namespace("http://ics.forth.gr/sqpeer/data#")
#: real frame bytes a modelled byte may stand for, in the frames the
#: tests below weigh (it was 1.6 while every payload crossed as tagged
#: JSON with its field names; as positional records the worst of them,
#: the paper query's RouteReply, is 337 B against 288 B, 1.17x)
MAX_FRAME_RATIO = 1.18


def frame_of(payload) -> bytes:
    return encode_frame("msg", encode_message(Message("P2", "P1", payload)))


def assert_names_each_once(frame: bytes, terms) -> None:
    """The frame spells each namespace and each local part of ``terms``
    (URIs all) once."""
    for namespace, local in {term.split for term in terms}:
        assert frame.count(json.dumps(namespace).encode()) == 1, namespace
        assert frame.count(json.dumps(local).encode()) == 1, local


@pytest.fixture(scope="module")
def join_answer():
    """A 500-row, 2-column join answer over 80 distinct terms."""
    xs = [DATA[f"x{i:02d}"] for i in range(40)]
    ys = [DATA[f"y{i:02d}"] for i in range(40)]
    rows = [(xs[i % 40], ys[(i * 7 + i // 40) % 40]) for i in range(500)]
    assert len(set(rows)) == 500 and len({t for row in rows for t in row}) == 80
    return EncodedTable.of_terms(BindingTable(("X", "Y"), rows))


@pytest.mark.parametrize(
    "build",
    [
        lambda table: DataPacket("P1#1", ((0, table),)),
        lambda table: QueryResult("C-q1", table),
    ],
    ids=["DataPacket", "QueryResult"],
)
def test_table_frame_names_each_term_once_and_stays_near_the_model(build, join_answer):
    payload = build(join_answer)
    frame = frame_of(payload)
    assert_names_each_once(frame, join_answer.terms)
    # measured: 3.8 KB of JSON against 4.5 KB modelled (0.85x / 0.85x;
    # 0.89x / 0.88x with field names and class tags); with each term
    # rendered whole it was 8.3 KB against 7.0 KB (1.18x), and with a
    # term rendered per cell 1.67x / 1.72x *and* 12 copies each
    assert len(frame) <= MAX_FRAME_RATIO * payload.size_bytes()


def test_three_table_packet_stays_near_the_model(join_answer):
    """A destination's whole reply in one packet: three outputs' tables
    over one term list, which names the terms they share once."""
    small = EncodedTable.of_terms(
        BindingTable(("X", "Y"), [(DATA[f"x{i:02d}"], DATA[f"y{i:02d}"]) for i in range(5)])
    )
    empty = EncodedTable.of_terms(BindingTable(("X", "Y")))
    for tables in [(join_answer,) * 3, (small, join_answer, empty), (small,) * 3]:
        payload = DataPacket("P1#1", tuple(enumerate(tables)))
        assert payload.rows == sum(table.length for table in tables)
        if join_answer in tables:
            # (three five-row tables are 385 B of JSON against 332 B
            # modelled, 1.16x: 666 B with field names and class tags)
            assert len(frame_of(payload)) <= MAX_FRAME_RATIO * payload.size_bytes()
        one_each = [DataPacket("P1#1", ((0, table),)) for table in tables]
        # what coalescing saves on a live link is at least what the
        # model says it saves: two 64 B packet headers
        saved = sum(len(frame_of(p)) for p in one_each) - len(frame_of(payload))
        assert saved >= sum(p.size_bytes() for p in one_each) - payload.size_bytes()
        assert saved >= 2 * 64


def test_two_output_packet_names_the_terms_they_share_once(join_answer):
    """A join answer and its ``Y`` column in one packet: the frame names
    each term once and stays near the model, and against two packets
    that each name their own terms, frame and model alike save a packet
    header and the second copy of the ``Y`` terms."""
    sender = TermDictionary()
    both = join_answer.intern(sender)
    narrow = both.align(("Y",))
    (packet,) = DataPacket.stream("P1#1", [both, narrow], sender, 1000)
    frame = frame_of(packet)
    assert_names_each_once(frame, join_answer.terms)
    assert len(frame) <= MAX_FRAME_RATIO * packet.size_bytes()
    apart = [DataPacket.stream("P1#1", [t], sender, 1000)[0] for t in (both, narrow)]
    modelled = sum(p.size_bytes() for p in apart) - packet.size_bytes()
    assert modelled == 64 + terms_size_bytes(apart[1].terms)
    assert sum(len(frame_of(p)) for p in apart) - len(frame) >= modelled


def _shipment():
    """One subplan per packet, and the same three in one, each naming
    the schema of its scans as a root's shipment does."""
    schema = paper_schema()
    pattern = paper_query_pattern(schema)
    q1, q2 = pattern.patterns[:2]
    plans = (Scan((q1,), "P2"), Scan((q2,), "P2"), Scan((q1, q2), "P2"))
    one_each = [
        SubPlanPacket("P1#1", (plan,), {}, "P1", "C-q1", schema=schema) for plan in plans
    ]
    return one_each, SubPlanPacket("P1#1", plans, {}, "P1", "C-q1", schema=schema)


def test_three_subplan_packet_saves_at_least_the_modelled_headers():
    """What the model says a shipment saves — two 128 B packet headers
    — a live link saves too (envelope, channel id, root, query id,
    schema: 2 × 104 B of JSON)."""
    one_each, shipment = _shipment()
    saved = sum(len(frame_of(p)) for p in one_each) - len(frame_of(shipment))
    assert sum(p.size_bytes() for p in one_each) - shipment.size_bytes() == 2 * 128
    assert saved >= 2 * 128


def test_requested_headers_keep_the_subplan_frame_near_its_model():
    """A header asked of each output is charged as a table header: the
    shipment grows in model and frame, and its frame-to-model ratio
    gets no worse."""
    _, shipment = _shipment()
    narrowed = replace(shipment, columns=(("X",), ("Y",), ("X", "Z")))
    assert narrowed.size_bytes() > shipment.size_bytes()
    ratio = len(frame_of(shipment)) / shipment.size_bytes()
    assert len(frame_of(narrowed)) <= ratio * narrowed.size_bytes()


def test_three_subplan_packet_stays_near_the_model():
    """The shipment names its schema once and each scan's path pattern
    as a record of term ids: 346 B against 416 B modelled (0.83x, and
    1.00x for its first scan alone; 1.16x and 1.54x with field names
    and class tags); with each pattern three full URIs under nested
    class tags it was 1771 B (4.3x) and 600 B (2.7x)."""
    one_each, shipment = _shipment()
    for packet in (shipment, one_each[0]):
        assert len(frame_of(packet)) <= MAX_FRAME_RATIO * packet.size_bytes()


@pytest.mark.parametrize("kind", ["RouteRequest", "RouteReply"])
def test_routing_frames_stay_near_the_model(kind):
    schema = paper_schema()
    pattern = paper_query_pattern(schema)
    if kind == "RouteRequest":
        payload = RouteRequest("q1", pattern, "P1")
    else:
        annotated = route_query(pattern, paper_active_schemas(schema).values(), schema)
        payload = RouteReply("q1", annotated)
    # 224 B against 192 B (1.17x) and 337 B against 288 B (1.17x); with
    # field names and class tags 303 B (1.58x) and 406 B (1.41x), and with
    # the whole schema inside the pattern 1958 B (10.2x) and 4586 B (15.9x)
    assert len(frame_of(payload)) <= MAX_FRAME_RATIO * payload.size_bytes()
    assert frame_of(payload).count(schema.fingerprint.encode()) == 1


@pytest.mark.parametrize("length", [1, 2, 3])
def test_fanout_route_reply_stays_near_the_model(length):
    """The sim-fanout shape: 32 peers over an 8-segment chain schema,
    so a chain query's reply annotates 20 and more peers.  A peer whose
    rewritten pattern is the query's own costs its id and exact flag."""
    synthetic = generate_schema(chain_length=8, noise_properties=1)
    peers = [f"P{i}" for i in range(1, 33)]
    bases = generate_bases(
        synthetic, peers, statements_per_segment=6, shared_pool=6, seed=11
    ).bases
    schema = synthetic.schema
    advertised = [ActiveSchema.from_base(bases[p], schema, p) for p in peers]
    pattern = pattern_from_text(chain_query(synthetic, 0, length), schema)
    annotated = route_query(pattern, advertised, schema)
    assert len(annotated.all_peers()) >= 20
    payload = RouteReply("C-q17", annotated)
    # 516 / 784 / 1045 B against 864 / 1440 / 2016 B modelled: ~0.55x
    # (585 / 853 / 1114 B with field names and class tags), where with
    # the schema inside the pattern it was 18 KB against 1.2 KB
    assert len(frame_of(payload)) <= MAX_FRAME_RATIO * payload.size_bytes()


def _every_kind():
    """One payload of every kind the codec carries, shaped as the paper
    workload sends it."""
    schema = paper_schema()
    pattern = paper_query_pattern(schema)
    annotated = route_query(pattern, paper_active_schemas(schema).values(), schema)
    bases = paper_peer_bases()
    active = ActiveSchema.from_base(bases["P1"], schema, "P1")
    table = EncodedTable.of_terms(BindingTable(
        ("X", "Y"), [(DATA[f"x{i}"], DATA[f"y{i}"]) for i in range(6)]
    ))
    s, p = DATA["x0"], schema.terms[-1]
    submit = QuerySubmit("C-q1", PAPER_QUERY, "C")
    payloads = [
        submit,
        QueryResult("C-q1", table),
        QueryShed("C-q1", 25.0, "P1"),
        RouteBusy("C-q1", 10.0, "SP1"),
        RouteRequest("C-q1", pattern, "P1"),
        RouteReply("C-q1", annotated),
        Advertise(active, stats=harvest_stat_summary(bases["P1"], schema, "P1")),
        AdvertisementRequest("P1", depth=2),
        AdvertisementReply((active,), "SP1"),
        Goodbye("P2"),
        DelegatedResult("C-q1", table, "P2", token="P2:1"),
        PartialPlan("C-q1", build_plan(annotated), pattern, "P1", "C", ("P1",), token="P1:1"),
        SubPlanPacket("P1#1", (Scan(pattern.patterns[:1], "P2"),), {}, "P1", "C-q1",
                      schema=schema),
        DataPacket("P1#1", ((0, table),)),
        ChangePlanPacket("P1#1", "peer lost"),
        UpdateBatch("P2", 4, (
            InsertTriple(Triple(s, p, DATA["y0"])), DeleteTriple(Triple(s, p, Literal("x"))),
            RedefineViews(()),
        )),
        UpdateAck("P2", 4, 2),
        advertisement_delta(ActiveSchema(active.schema_uri, (), (), "P1"), active),
        ContinuousSubscribe("C-s1", PAPER_QUERY, "C"),
        ContinuousUpdate("C-s1", table, table, 4),
        ContinuousCancel("C-s1"),
        RefreshStanding(4),
        Heartbeat("P2"),
        DeliveryFailure(Message("C", "P1", submit)),
    ]
    return {type(payload).__name__: payload for payload in payloads}


#: each kind's frame-to-model ratio for the payload above, measured once
#: every payload crossed as a positional record and rounded up to two
#: decimals (the ratio with field names and class tags after the #): a
#: control message of a few modelled bytes is mostly envelope
FRAME_RATIOS = {
    "Advertise": 1.41,  # 1.69
    "AdvertiseDelta": 1.28,  # 2.01
    "AdvertisementReply": 1.32,  # 1.49
    "AdvertisementRequest": 1.72,  # 2.20
    "ChangePlanPacket": 1.14,  # 1.45
    "ContinuousCancel": 2.04,  # 2.46
    "ContinuousSubscribe": 1.32,  # 1.55
    "ContinuousUpdate": 1.49,  # 2.01
    "DataPacket": 1.46,  # 2.22
    "DelegatedResult": 1.33,  # 1.81
    "DeliveryFailure": 4.54,  # 6.80
    "Goodbye": 1.9,  # 2.32
    "Heartbeat": 3.04,  # 3.66
    "PartialPlan": 1.57,  # 1.84
    "QueryResult": 1.43,  # 1.98
    "QueryShed": 1.52,  # 2.18
    "QuerySubmit": 1.27,  # 1.99
    "RefreshStanding": 3.13,  # 3.81
    "RouteBusy": 1.53,  # 2.19
    "RouteReply": 1.18,  # 1.42
    "RouteRequest": 1.18,  # 1.59
    "SubPlanPacket": 1.01,  # 1.54
    "UpdateAck": 2.02,  # 2.84
    "UpdateBatch": 1.58,  # 2.31
}


def test_every_kind_has_a_measured_frame_ratio():
    assert sorted(_every_kind()) == sorted(FRAME_RATIOS) == sorted(
        cls.__name__ for cls in get_args(Payload)
    )


@pytest.mark.parametrize("kind", sorted(FRAME_RATIOS))
def test_every_kind_stays_near_its_measured_ratio(kind):
    payload = _every_kind()[kind]
    assert len(frame_of(payload)) <= FRAME_RATIOS[kind] * payload.size_bytes()
