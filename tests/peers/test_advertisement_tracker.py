"""Unit tests for the advertisement footprint tracker (churn module)."""

import pytest

from repro.peers.base import PeerBase
from repro.peers.protocol import Goodbye
from repro.peers.simple import AdvertisementTracker
from repro.rdf import Graph, TYPE
from repro.rvl import parse_view
from repro.workloads.paper import DATA, N1, PAPER_VIEW, paper_schema


@pytest.fixture
def schema():
    return paper_schema()


class TestTracker:
    def test_fresh_tracker_needs_refresh(self, schema):
        graph = Graph()
        graph.add(DATA.a, N1.prop1, DATA.b)
        tracker = AdvertisementTracker(PeerBase(graph, schema))
        assert tracker.needs_refresh()  # never advertised

    def test_mark_then_stable(self, schema):
        graph = Graph()
        graph.add(DATA.a, N1.prop1, DATA.b)
        tracker = AdvertisementTracker(PeerBase(graph, schema))
        tracker.mark_advertised()
        assert not tracker.needs_refresh()

    def test_extensional_change_invisible(self, schema):
        graph = Graph()
        graph.add(DATA.a, N1.prop1, DATA.b)
        tracker = AdvertisementTracker(PeerBase(graph, schema))
        tracker.mark_advertised()
        graph.add(DATA.c, N1.prop1, DATA.d)
        assert not tracker.needs_refresh()

    def test_new_property_visible(self, schema):
        graph = Graph()
        graph.add(DATA.a, N1.prop1, DATA.b)
        tracker = AdvertisementTracker(PeerBase(graph, schema))
        tracker.mark_advertised()
        graph.add(DATA.b, N1.prop2, DATA.e)
        assert tracker.needs_refresh()

    def test_refresh_returns_advertisement_once(self, schema):
        graph = Graph()
        graph.add(DATA.a, N1.prop1, DATA.b)
        tracker = AdvertisementTracker(PeerBase(graph, schema))
        first = tracker.refresh("P")
        assert first is not None
        assert first.covers_property(N1.prop1)
        assert tracker.refresh("P") is None  # stable now

    def test_view_backed_base_uses_view_footprint(self, schema):
        base = PeerBase(Graph(), schema, views=[parse_view(PAPER_VIEW)])
        tracker = AdvertisementTracker(base)
        advertisement = tracker.refresh("P")
        assert advertisement.covers_property(N1.prop4)
        # adding raw data does not change the view's footprint
        base.graph.add(DATA.x, N1.prop4, DATA.y)
        assert tracker.refresh("P") is None

    def test_goodbye_size(self):
        assert Goodbye("peer-with-a-name").size_bytes() > 48
