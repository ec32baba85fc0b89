"""Tests for streamed result chunks and throughput-based adaptation.

Section 2.5: "the optimizer may alter a running query plan by observing
the throughput of a certain channel.  This throughput can be measured
by the number of incoming or outgoing tuples."
"""

import pytest

from repro.config import PeerConfig, reconfigure
from repro.errors import PeerError
from repro.net import Message
from repro.peers.base import Peer
from repro.systems import HybridSystem
from repro.workloads.paper import (
    PAPER_QUERY,
    paper_peer_bases,
    paper_schema,
)


class SilentPeer(Peer):
    """Accepts subplans and never answers — a stalled producer."""

    def handle_SubPlanPacket(self, message: Message) -> None:
        pass  # swallow the work


def build_system(**peer_options) -> HybridSystem:
    system = HybridSystem(paper_schema(), config=PeerConfig(**peer_options))
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    return system


class TestStreaming:
    def test_chunked_results_identical(self):
        plain = build_system().query("P1", PAPER_QUERY)
        streamed_system = build_system(batch_size=2, stream_interval=2.0)
        streamed = streamed_system.query("P1", PAPER_QUERY)
        assert streamed == plain

    def test_chunking_multiplies_data_packets(self):
        baseline = build_system()
        baseline.query("P1", PAPER_QUERY)
        base_packets = baseline.network.metrics.messages_by_kind["DataPacket"]

        chunked = build_system(batch_size=1, stream_interval=2.0)
        chunked.query("P1", PAPER_QUERY)
        chunk_packets = chunked.network.metrics.messages_by_kind["DataPacket"]
        assert chunk_packets > base_packets

    def test_single_row_results_not_split(self):
        system = build_system(batch_size=1000, stream_interval=2.0)  # larger than any result
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 9


class TestThroughputMonitoring:
    def _with_silent_peer(self, monitoring: bool) -> HybridSystem:
        """The paper scenario plus a silent peer that advertises the
        same fragment as P2 — routing prefers nobody, so the silent
        peer receives a subplan and stalls the query."""
        from repro.peers.protocol import Advertise
        from repro.rvl import ActiveSchema

        system = build_system(monitor_interval=5.0 if monitoring else None)
        silent = SilentPeer("SILENT", None)
        silent.join(system.network)
        # hand-craft an advertisement claiming prop1 coverage
        schema = system.schema
        from repro.rql.pattern import SchemaPath
        from repro.workloads.paper import N1

        fake = ActiveSchema(
            schema.namespace.uri,
            [SchemaPath(N1.C1, N1.prop1, N1.C2)],
            peer_id="SILENT",
        )
        system.network.send(Message("SILENT", "SP1", Advertise(fake)))
        system.run()
        return system

    def test_without_monitoring_query_stalls(self):
        system = self._with_silent_peer(monitoring=False)
        with pytest.raises(PeerError, match="no reply"):
            system.query("P1", PAPER_QUERY)

    def test_monitoring_replans_away_from_stalled_channel(self):
        system = self._with_silent_peer(monitoring=True)
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 9  # the real peers' answers survive

    def test_monitoring_does_not_disturb_healthy_queries(self):
        system = build_system(monitor_interval=5.0)
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 9

    def test_slow_streamer_detected(self):
        """A peer streaming with an enormous inter-chunk delay is
        treated as stalled and replaced."""
        system = build_system(monitor_interval=5.0)
        # effectively never finishes
        reconfigure(system.peers["P2"], batch_size=1, stream_interval=1e6)
        table = system.query("P1", PAPER_QUERY)
        # P2's four bridge chains are lost, the others answer
        assert len(table) == 5
