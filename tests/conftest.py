"""Shared fixtures: the paper's running example and synthetic workloads."""

from __future__ import annotations

import pytest

import repro.peers.client
from repro.rdf import Graph, Namespace, Schema
from repro.workloads.paper import (
    N1,
    PAPER_QUERY,
    adhoc_scenario,
    hybrid_scenario,
    paper_active_schemas,
    paper_peer_bases,
    paper_query_pattern,
    paper_schema,
)

# The suite asks ~11 000 queries back to back; a client's wall-clock
# pacing would add about a minute of sleeping and check nothing
# (tests/peers/test_peers.py::TestClientPacing turns it back on).
repro.peers.client.SUBMIT_TIME_SCALE = 0.0


@pytest.fixture
def schema() -> Schema:
    """The Figure 1 community schema (C1–C6, prop1–prop4)."""
    return paper_schema()


@pytest.fixture
def n1() -> Namespace:
    return N1


@pytest.fixture
def query_pattern(schema):
    """The semantic pattern of query Q (Q1: prop1, Q2: prop2)."""
    return paper_query_pattern(schema)


@pytest.fixture
def advertisements(schema):
    """Figure 2's four peer advertisements keyed by peer id."""
    return paper_active_schemas(schema)


@pytest.fixture
def peer_bases():
    """Materialised bases for P1–P4 matching the advertisements."""
    return paper_peer_bases()


@pytest.fixture
def paper_query_text() -> str:
    return PAPER_QUERY


@pytest.fixture
def figure6():
    return hybrid_scenario()


@pytest.fixture
def figure7():
    return adhoc_scenario()


@pytest.fixture
def empty_graph() -> Graph:
    return Graph()
