"""The model charges what the codec ships.

``size_bytes()`` is what the simulator's links, the cost model's
shipping decisions and the benchmark's ``wire_bytes_per_query`` count;
the JSON frame is what a live link carries.  For a binding table the
two must tell the same story: each distinct term once, and a small
constant per cell.
"""

import pytest

from repro.channels.packets import DataPacket
from repro.core.routing import route_query
from repro.execution.encoded import EncodedTable
from repro.net.message import Message
from repro.peers.protocol import QueryResult, RouteReply, RouteRequest
from repro.rdf import Namespace
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
    [lambda table: DataPacket("P1#1", table), lambda table: QueryResult("C-q1", table)],
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
