"""Tests for cross-process trace stitching and canonical export."""

import json

import pytest

from repro.obs import (
    Span,
    render_trace,
    spans_from_dicts,
    stitch_trace_exports,
    validate_trace_dicts,
)
from repro.systems import HybridSystem
from repro.workloads.paper import PAPER_QUERY, paper_peer_bases, paper_schema


def span(span_id, parent_id, name, peer, start, end, trace_id="q1"):
    return {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "peer": peer,
        "start": start,
        "end": end,
        "status": "ok",
        "attributes": {},
        "events": [],
    }


def two_process_exports():
    """The launcher fragment (root) plus a node fragment, with the
    ``@node`` id suffixes live tracers mint and per-process clocks."""
    launcher = {
        "schema": "repro.obs/trace-v1",
        "traces": [{"trace_id": "q1", "spans": [
            span("s1@launcher", None, "query", "client1", 50.0, 51.0),
        ]}],
    }
    node = {
        "schema": "repro.obs/trace-v1",
        "traces": [{"trace_id": "q1", "spans": [
            span("s1@P1", "s1@launcher", "coordinate", "P1", 10.0, 10.8),
            span("s2@P1", "s1@P1", "execute", "P1", 10.1, 10.7),
        ]}],
    }
    return [launcher, node]


class TestStitching:
    def test_fragments_merge_by_trace_id(self):
        stitched = stitch_trace_exports(two_process_exports())
        assert list(stitched) == ["q1"]
        assert [s["span_id"] for s in stitched["q1"]] == [
            "s1@P1", "s2@P1", "s1@launcher",
        ]  # ordered by start time across fragments

    def test_cross_clock_validation_skips_foreign_epochs(self):
        spans = stitch_trace_exports(two_process_exports())["q1"]
        # strict check trips: the node's epoch starts before the
        # launcher's, which is clock skew, not a causality bug
        assert validate_trace_dicts(spans) != []
        assert validate_trace_dicts(spans, cross_clock=True) == []

    def test_same_peer_causality_still_enforced(self):
        exports = two_process_exports()
        exports[1]["traces"][0]["spans"][1]["start"] = 9.0  # before parent
        spans = stitch_trace_exports(exports)["q1"]
        problems = validate_trace_dicts(spans, cross_clock=True)
        assert any("starts" in p for p in problems)

    def test_missing_fragment_is_a_context_gap(self):
        exports = two_process_exports()[1:]  # lose the launcher's root
        spans = stitch_trace_exports(exports)["q1"]
        problems = validate_trace_dicts(spans, cross_clock=True)
        assert any("orphan" in p for p in problems)

    def test_span_dicts_round_trip(self):
        exports = two_process_exports()
        node_span = exports[1]["traces"][0]["spans"][1]
        node_span["attributes"] = {"rows": 3, "plan": "Q1@P1", "cached": False}
        node_span["events"] = [[10.2, "retry 1"], [10.5, "packet seq=0"]]
        exports[0]["traces"][0]["spans"][0]["end"] = None  # still running
        for spans in stitch_trace_exports(exports).values():
            for record in spans:
                assert Span.from_dict(record).to_dict() == record

    def test_stitched_spans_render(self):
        spans = spans_from_dicts(
            stitch_trace_exports(two_process_exports())["q1"]
        )
        text = render_trace(spans)
        assert "query @client1" in text
        assert "execute @P1" in text


class TestCanonicalExport:
    def test_export_json_is_strict_and_round_trips(self):
        system = HybridSystem(paper_schema())
        system.add_super_peer("SP1")
        for peer_id, graph in paper_peer_bases().items():
            system.add_peer(peer_id, graph, "SP1")
        system.query("P1", PAPER_QUERY)
        collector = system.network.trace_collector
        # strict dump: any non-JSON scalar in a span is a crash, not a
        # silently stringified soup
        text = collector.export_json()
        export = json.loads(text)
        assert export["schema"] == "repro.obs/trace-v1"
        for trace in export["traces"]:
            for record in trace["spans"]:
                for value in record["attributes"].values():
                    assert isinstance(value, (str, int, float, bool, type(None)))
            assert validate_trace_dicts(trace["spans"]) == []

    def test_span_attributes_stringify_canonically(self):
        from repro.obs.span import _stringify

        class Renderable:
            def render(self):
                return object()  # a render() that forgets to return str

        assert _stringify(Renderable()) != ""
        assert isinstance(_stringify(Renderable()), str)
        assert _stringify(3.5) == 3.5
        assert _stringify(True) is True
        assert isinstance(_stringify(object()), str)
