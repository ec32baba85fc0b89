"""The model charges what the codec ships.

``size_bytes()`` is what the simulator's links, the cost model's
shipping decisions and the benchmark's ``wire_bytes_per_query`` count;
the JSON frame is what a live link carries.  For a binding table the
two must tell the same story: each distinct term once, and a small
constant per cell.
"""

from dataclasses import replace

import pytest

from repro.channels.packets import DataPacket, SubPlanPacket
from repro.core.algebra import Scan
from repro.core.routing import route_query
from repro.execution.encoded import EncodedTable
from repro.net.message import Message
from repro.peers.protocol import QueryResult, RouteReply, RouteRequest
from repro.rdf import Namespace
from repro.rdf.dictionary import TermDictionary
from repro.rql.bindings import BindingTable
from repro.transport.codec import encode_frame, encode_message
from repro.workloads.paper import (
    paper_active_schemas,
    paper_query_pattern,
    paper_schema,
)

DATA = Namespace("http://ics.forth.gr/sqpeer/data#")
#: real frame bytes a modelled byte may stand for
MAX_FRAME_RATIO = 1.6


def frame_of(payload) -> bytes:
    return encode_frame("msg", encode_message(Message("P2", "P1", payload)))


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
    for term in join_answer.terms:
        assert frame.count(term.value.encode()) == 1, term
    # measured: 8.3 KB of JSON against 7.0 KB modelled (1.18x); with a
    # term rendered per cell it was 1.67x / 1.72x *and* 12 copies each
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
            # (a five-row table alone is 954 B of JSON against 486 B
            # modelled, as it was before packets carried several)
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
    for term in join_answer.terms:
        assert frame.count(term.value.encode()) == 1, term
    assert len(frame) <= MAX_FRAME_RATIO * packet.size_bytes()
    apart = [DataPacket.stream("P1#1", [t], sender, 1000)[0] for t in (both, narrow)]
    modelled = sum(p.size_bytes() for p in apart) - packet.size_bytes()
    assert modelled == 64 + sum(len(t.n3()) for t in apart[1].terms)
    assert sum(len(frame_of(p)) for p in apart) - len(frame) >= modelled


def _shipment():
    """One subplan per packet, and the same three in one."""
    pattern = paper_query_pattern(paper_schema())
    q1, q2 = pattern.patterns[:2]
    plans = (Scan((q1,), "P2"), Scan((q2,), "P2"), Scan((q1, q2), "P2"))
    one_each = [SubPlanPacket("P1#1", (plan,), {}, "P1", "C-q1") for plan in plans]
    return one_each, SubPlanPacket("P1#1", plans, {}, "P1", "C-q1")


def test_three_subplan_packet_saves_at_least_the_modelled_headers():
    """What the model says a shipment saves — two 128 B packet headers
    — a live link saves too (envelope, channel id, root, query id: 2 ×
    207 B of JSON)."""
    one_each, shipment = _shipment()
    saved = sum(len(frame_of(p)) for p in one_each) - len(frame_of(shipment))
    assert sum(p.size_bytes() for p in one_each) - shipment.size_bytes() == 2 * 128
    assert saved >= 2 * 128


def test_requested_headers_keep_the_subplan_frame_near_its_model():
    """A header asked of each output is charged as a table header: the
    shipment grows in model and frame, and its frame-to-model ratio
    (the strict xfail below records it) gets no worse."""
    _, shipment = _shipment()
    narrowed = replace(shipment, columns=(("X",), ("Y",), ("X", "Z")))
    assert narrowed.size_bytes() > shipment.size_bytes()
    ratio = len(frame_of(shipment)) / shipment.size_bytes()
    assert len(frame_of(narrowed)) <= ratio * narrowed.size_bytes()


@pytest.mark.xfail(
    strict=True,
    reason="finding, older than the per-destination packet and not fixed by it: "
    "a Scan is modelled at 96 B but each of its path patterns is ~370 B of "
    "JSON (three full URIs under nested class tags), so a one-scan "
    "SubPlanPacket frame is 600 B against 224 B modelled (2.7x) and the "
    "three-subplan shipment 1771 B against 416 B (4.3x); raising the model "
    "would move wire_bytes_per_query, compacting the pattern encoding is "
    "ROADMAP direction 4",
)
def test_three_subplan_packet_stays_near_the_model():
    _, shipment = _shipment()
    assert len(frame_of(shipment)) <= MAX_FRAME_RATIO * shipment.size_bytes()


@pytest.mark.xfail(
    strict=True,
    reason="finding for the data-plane list, not fixed here: the codec "
    "serialises the whole community Schema inside every QueryPattern, so the "
    "paper query's RouteRequest is 1958 B of JSON against 192 B modelled "
    "(10.2x) and its RouteReply 4586 B against 288 B (15.9x)",
)
@pytest.mark.parametrize("kind", ["RouteRequest", "RouteReply"])
def test_routing_frames_stay_near_the_model(kind):
    schema = paper_schema()
    pattern = paper_query_pattern(schema)
    if kind == "RouteRequest":
        payload = RouteRequest("q1", pattern, "P1")
    else:
        annotated = route_query(pattern, paper_active_schemas(schema).values(), schema)
        payload = RouteReply("q1", annotated)
    assert len(frame_of(payload)) <= MAX_FRAME_RATIO * payload.size_bytes()
