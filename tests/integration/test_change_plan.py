"""Tests for ubQL "changing plan" packets (Section 2.4): a replanning
root tells the destinations of discarded channels to terminate their
on-going computation."""

import pytest

from repro.config import PeerConfig, reconfigure
from repro.systems import HybridSystem
from repro.workloads.paper import PAPER_QUERY, paper_peer_bases, paper_schema


def build_system(monitoring: bool = True) -> HybridSystem:
    system = HybridSystem(
        paper_schema(),
        config=PeerConfig(monitor_channels=monitoring, monitor_interval=5.0),
    )
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    return system


class TestChangePlanPackets:
    def test_sent_on_stall_replan(self):
        """When the watchdog replans away from a stalled streamer, the
        healthy channels of the abandoned attempt get ChangePlanPackets."""
        system = build_system()
        reconfigure(system.peers["P2"], stream_chunk_rows=1, stream_interval=1e6)
        table = system.query("P1", PAPER_QUERY)
        kinds = system.network.metrics.messages_by_kind
        assert kinds.get("ChangePlanPacket", 0) >= 1
        assert len(table) == 5

    def test_cancelled_stream_stops_sending(self):
        """The stalled streamer's remaining chunks are never sent after
        the cancel arrives."""
        system = build_system()
        for peer in system.peers.values():
            # slow enough to be stalled
            reconfigure(peer, stream_chunk_rows=1, stream_interval=30.0)
        system.query("P1", PAPER_QUERY)
        data_packets = system.network.metrics.messages_by_kind["DataPacket"]

        # without cancellation the streams would run to completion; with
        # it, a bounded number of chunks crosses the wire.  Every result
        # row as a chunk plus retries would exceed this bound otherwise.
        assert data_packets < 60

    def test_no_change_plan_without_failures(self):
        system = build_system(monitoring=False)
        system.query("P1", PAPER_QUERY)
        kinds = system.network.metrics.messages_by_kind
        assert kinds.get("ChangePlanPacket", 0) == 0

    def test_crash_replan_notifies_survivors(self):
        """A crash-triggered replan also cancels the surviving open
        channels of the failed attempt."""
        system = build_system(monitoring=False)
        for peer in system.peers.values():
            reconfigure(peer, stream_chunk_rows=1, stream_interval=3.0)
        system.run()
        system.network.fail_peer("P2")
        table = system.query("P1", PAPER_QUERY)
        assert len(table) == 5
        kinds = system.network.metrics.messages_by_kind
        assert kinds.get("ChangePlanPacket", 0) >= 1
