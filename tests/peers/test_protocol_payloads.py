"""Tests for protocol payload metadata (sizes, kinds)."""

import pytest

from repro.channels.packets import (
    ChangePlanPacket,
    DataPacket,
    SubPlanPacket,
)
from repro.core.algebra import Scan
from repro.execution.encoded import EncodedTable
from repro.net.message import Message, payload_kind, payload_size
from repro.peers.protocol import (
    Advertise,
    AdvertisementReply,
    AdvertisementRequest,
    DelegatedResult,
    Goodbye,
    PartialPlan,
    QueryResult,
    QuerySubmit,
    RouteReply,
    RouteRequest,
)
from repro.rdf.dictionary import TermDictionary
from repro.rql.bindings import BindingTable
from repro.rvl import ActiveSchema
from repro.workloads.paper import (
    DATA,
    N1,
    paper_active_schemas,
    paper_query_pattern,
    paper_schema,
)

from ..idtables import encode_cells


@pytest.fixture
def schema():
    return paper_schema()


@pytest.fixture
def pattern(schema):
    return paper_query_pattern(schema)


def all_payloads(schema, pattern):
    ad = next(iter(paper_active_schemas(schema).values()))
    scan = Scan((pattern.root,), "P2")
    terms = BindingTable(("X",), [(DATA.a,)] * 5)
    table = EncodedTable.of_terms(terms)
    dictionary = TermDictionary()
    from repro.core.routing import route_query

    annotated = route_query(pattern, paper_active_schemas(schema).values(), schema)
    return [
        QuerySubmit("q1", "SELECT ...", "C"),
        QueryResult("q1", table),
        QueryResult("q1", None, error="boom"),
        RouteRequest("q1", pattern, "A"),
        RouteReply("q1", annotated),
        Advertise(ad),
        AdvertisementRequest("A", depth=2),
        AdvertisementReply((ad,), "B"),
        PartialPlan("q1", scan, pattern, "A", "A"),
        DelegatedResult("q1", table, "B"),
        DelegatedResult("q1", None, "B", error="cannot complete plan"),
        Goodbye("B"),
        SubPlanPacket("A#1", (scan,)),
        *DataPacket.stream(
            "A#1", [encode_cells(terms, dictionary)], dictionary, 256, {"p": 5}
        ),
        ChangePlanPacket("A#1", "replan"),
    ]


class TestSizes:
    def test_every_payload_has_positive_size(self, schema, pattern):
        for payload in all_payloads(schema, pattern):
            assert payload_size(payload) > 0, payload

    def test_result_size_scales_with_rows(self):
        small = QueryResult("q", EncodedTable.of_terms(BindingTable(("X",), [(DATA.a,)])))
        big = QueryResult(
            "q", EncodedTable.of_terms(BindingTable(("X",), [(DATA.a,)] * 100))
        )
        assert payload_size(big) > payload_size(small)

    def test_subplan_size_scales_with_scans(self, pattern):
        one = SubPlanPacket("c", (Scan((pattern.root,), "P1"),))
        from repro.core.algebra import Join

        two = SubPlanPacket(
            "c",
            (Join([Scan((pattern.root,), "P1"), Scan((pattern.patterns[1],), "P2")]),),
        )
        assert payload_size(two) > payload_size(one)

    def test_kind_is_class_name(self, schema, pattern):
        for payload in all_payloads(schema, pattern):
            assert payload_kind(payload) == type(payload).__name__

    def test_unknown_payload_gets_default_size(self):
        class Odd:
            pass

        assert payload_size(Odd()) == 256


class TestMessage:
    def test_envelope_defaults(self):
        message = Message("A", "B", QuerySubmit("q", "text", "A"))
        assert message.kind == "QuerySubmit"
        assert message.size == payload_size(message.payload)

    def test_explicit_size_override(self):
        message = Message("A", "B", "raw", size=9)
        assert message.size == 9

    def test_ids_monotonic(self):
        first = Message("A", "B", "x")
        second = Message("A", "B", "x")
        assert second.id > first.id
