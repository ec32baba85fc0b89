"""Tests for channel statistics feedback (Section 2.5)."""

import pytest

from repro.systems import HybridSystem
from repro.workloads.paper import (
    N1,
    PAPER_QUERY,
    paper_peer_bases,
    paper_schema,
)


@pytest.fixture
def system():
    system = HybridSystem(paper_schema())
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    return system


class TestStatisticsFeedback:
    def test_coordinator_learns_cardinalities(self, system):
        system.query("P1", PAPER_QUERY)
        stats = system.peers["P1"].statistics
        # P2 holds 4 prop1 statements; P3 holds 4 prop2 statements
        assert stats.cardinality("P2", N1.prop1) == 4
        assert stats.cardinality("P3", N1.prop2) == 4

    def test_subsumption_counts_included(self, system):
        system.query("P1", PAPER_QUERY)
        stats = system.peers["P1"].statistics
        # P4's prop1 count is entailed from its 2 prop4 statements
        assert stats.cardinality("P4", N1.prop1) == 2

    def test_stats_packets_on_wire(self, system):
        system.query("P1", PAPER_QUERY)
        # no message of their own: the cardinalities ride on the one
        # reply stream each contacted peer answers its subplan with
        kinds = system.network.metrics.messages_by_kind
        assert "StatsPacket" not in kinds
        assert kinds["DataPacket"] == kinds["SubPlanPacket"] >= 3

    def test_unknown_peer_keeps_default(self, system):
        system.query("P1", PAPER_QUERY)
        stats = system.peers["P1"].statistics
        assert stats.cardinality("P9", N1.prop1) == stats.default_cardinality

    def test_second_query_still_correct(self, system):
        first = system.query("P1", PAPER_QUERY)
        second = system.query("P1", PAPER_QUERY)
        assert first == second

    def test_stats_survive_for_other_coordinators(self, system):
        """Each coordinator learns independently from its own channels."""
        system.query("P1", PAPER_QUERY)
        assert system.peers["P2"].statistics.cardinality("P3", N1.prop2) == (
            system.peers["P2"].statistics.default_cardinality
        )
