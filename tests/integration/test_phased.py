"""Tests for the phased execution policy vs the ubQL discard policy.

The paper (Section 2.5) contrasts two ways of handling partial results
when a running plan changes: ubQL discards everything (SQPeer's
choice), [Ives02] enters a new phase and reuses completed subresults.
Both are implemented; these tests check the phased variant reuses
shipped scans after a failure while producing the same answers.
"""

import pytest

from repro.config import PeerConfig
from repro.systems import HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import generate_schema


def build(failure_policy: str, seed: int = 0):
    synth = generate_schema(chain_length=2, refinement_fraction=0.0, seed=seed)
    peers = [f"P{i}" for i in range(6)]
    gen = generate_bases(
        synth, peers, Distribution.HORIZONTAL, statements_per_segment=8, seed=seed
    )
    system = HybridSystem(synth.schema, config=PeerConfig(failure_policy=failure_policy))
    system.add_super_peer("SP1")
    for peer_id, graph in gen.bases.items():
        system.add_peer(peer_id, graph, "SP1")
    system.run()
    return system, synth


class TestPolicies:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            PeerConfig(failure_policy="yolo")

    def test_same_answers_without_failures(self):
        discard_system, synth = build("discard")
        phased_system, _ = build("phased")
        text = chain_query(synth, 0, 2)
        assert discard_system.query("P0", text) == phased_system.query("P0", text)

    def test_same_answers_under_failure(self):
        discard_system, synth = build("discard", seed=1)
        phased_system, _ = build("phased", seed=1)
        text = chain_query(synth, 0, 2)
        discard_system.network.fail_peer("P3")
        phased_system.network.fail_peer("P3")
        assert discard_system.query("P0", text) == phased_system.query("P0", text)

    def test_phased_reuses_subresults(self):
        """After a failure, the phased replan answers cached scans
        locally instead of re-shipping them."""
        phased_system, synth = build("phased", seed=2)
        text = chain_query(synth, 0, 2)
        phased_system.network.fail_peer("P2")
        phased_system.query("P0", text)
        coordinator = phased_system.peers["P0"]
        # reuse accounting comes from completed queries' pending records:
        # run a second failing scenario and inspect metrics instead
        kinds = phased_system.network.metrics.messages_by_kind

        discard_system, _ = build("discard", seed=2)
        discard_system.network.fail_peer("P2")
        discard_system.query("P0", text)
        discard_kinds = discard_system.network.metrics.messages_by_kind
        # the phased run ships strictly fewer subplans on the retry
        assert kinds["SubPlanPacket"] < discard_kinds["SubPlanPacket"]

    def test_discard_reships_everything(self):
        discard_system, synth = build("discard", seed=3)
        text = chain_query(synth, 0, 2)
        baseline_system, _ = build("discard", seed=3)
        baseline_system.query("P0", text)
        baseline = baseline_system.network.metrics.messages_by_kind["SubPlanPacket"]
        discard_system.network.fail_peer("P4")
        discard_system.query("P0", text)
        retried = discard_system.network.metrics.messages_by_kind["SubPlanPacket"]
        assert retried > baseline  # the failed attempt's work repeats

    def test_topk_stop_under_phased_releases_every_channel(self):
        """An *answered* query keeps nothing open: the phased policy
        holds scan channels for salvage across a failed attempt only.
        (The top-k stop used to take the abort path's exemption and
        left every scan channel of the answered query open.)"""
        synth = generate_schema(chain_length=2, refinement_fraction=0.0, seed=0)
        peers = [f"P{i}" for i in range(6)]
        gen = generate_bases(
            synth, peers, Distribution.HORIZONTAL, statements_per_segment=8, seed=0
        )
        system = HybridSystem(
            synth.schema,
            config=PeerConfig(
                failure_policy="phased",
                topk_cancel=True,
                stream_chunk_rows=1,
                stream_interval=1.0,
            ),
        )
        system.add_super_peer("SP1")
        for peer_id, graph in gen.bases.items():
            system.add_peer(peer_id, graph, "SP1")
        system.run()
        text = chain_query(synth, 0, 2)
        full = system.query("P0", text)
        # more than P0's own base joins to: the stop comes mid-stream
        table = system.query("P0", text, limit=8)
        assert len(system.peers["P0"].channels) == 0  # as soon as answered
        system.run()
        assert len(table) == 8 < len(full)
        assert all(row in full.rows for row in table.rows)
        metrics = system.network.metrics
        assert metrics.topk_cancels == 1
        assert metrics.messages_by_kind["ChangePlanPacket"] == len(peers) - 1
        assert metrics.discarded_bindings > 0
        for peer in system.peers.values():
            assert len(peer.channels) == 0, peer
            assert peer._active_streams == set() == peer._cancelled_streams
        assert system.network.pending_events() == 0
