"""Integration tests for the resilience layer under chaos: realistic
(non-omniscient) crashes discovered through timeouts, duplicate
deliveries, lost submits, graceful degradation and seeded replay."""

import pytest

from repro.resilience import (
    CrashEvent,
    FaultPlan,
    LinkPartition,
    ResilienceConfig,
    RetryPolicy,
    run_chaos,
)
from repro.systems import AdhocSystem, HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import generate_schema

SYNTH = generate_schema(chain_length=2, refinement_fraction=0.0, seed=13)
PEERS = [f"P{i}" for i in range(6)]
QUERY = chain_query(SYNTH, 0, 2)


def fast_config(**overrides) -> ResilienceConfig:
    """Default resilience with short deadlines to keep tests quick."""
    options = dict(
        channel_retry=RetryPolicy(max_attempts=3, base_timeout=10.0),
        routing_retry=RetryPolicy(max_attempts=3, base_timeout=10.0),
        client_retry=RetryPolicy(max_attempts=3, base_timeout=80.0),
        delegation_timeout=30.0,
    )
    options.update(overrides)
    return ResilienceConfig(**options)


def hybrid_system(seed=0, distribution=Distribution.HORIZONTAL, config=None):
    gen = generate_bases(
        SYNTH, PEERS, distribution, statements_per_segment=6, seed=13
    )
    system = HybridSystem(SYNTH.schema, seed=seed)
    system.add_super_peer("SP1")
    for peer_id, graph in gen.bases.items():
        system.add_peer(peer_id, graph, "SP1")
    system.run()
    system.enable_resilience(config or fast_config())
    return system


def adhoc_system(seed=0, config=None):
    gen = generate_bases(
        SYNTH, PEERS, Distribution.HORIZONTAL, statements_per_segment=6, seed=13
    )
    system = AdhocSystem(SYNTH.schema, seed=seed)
    for index, peer_id in enumerate(PEERS):
        neighbours = (
            PEERS[(index - 1) % len(PEERS)],
            PEERS[(index + 1) % len(PEERS)],
        )
        system.add_peer(peer_id, gen.bases[peer_id], neighbours)
    system.discover_all()
    system.enable_resilience(config or fast_config())
    return system


class TestCrashDiscoveredByTimeout:
    """Without omniscient bounces the coordinator only learns about a
    dead peer from its own channel deadlines."""

    def test_silent_crash_repaired_by_replan(self):
        system = hybrid_system()
        system.network.install_faults(FaultPlan())  # realistic mode, no faults
        system.network.fail_peer("P3")
        table = system.query("P0", QUERY)
        assert len(table) > 0
        # the repair was observational: retransmits preceded the replan
        assert system.network.metrics.retransmits > 0
        assert system.network.metrics.suspicions > 0

    def test_peer_fails_during_in_progress_replan(self):
        """A second peer dies while the replan triggered by the first
        death is still executing; the bounded budget absorbs both."""
        system = hybrid_system()
        network = system.network
        network.install_faults(FaultPlan())
        network.fail_peer("P3")
        # P4 dies mid-replan: after the first channel deadline (t≈30)
        # has forced the replan but before its channels can finish
        network.call_later(35.0, lambda: network.fail_peer("P4"))
        table = system.query("P0", QUERY)
        assert len(table) > 0
        coordinator = system.peers["P0"]
        assert coordinator.coordinator.in_flight() == 0  # nothing leaked
        open_destinations = {
            ch.destination for ch in coordinator.channels.open_channels().values()
        }
        assert not ({"P3", "P4"} & open_destinations)


class TestDuplicateDeliveryIdempotence:
    """duplicate_rate=1.0 delivers every message twice; sequence-number
    dedup, result tokens and idempotent submits must keep the answer
    exactly-once correct."""

    def test_hybrid_rows_exact_under_full_duplication(self):
        baseline = hybrid_system().query("P0", QUERY)
        system = hybrid_system()
        system.network.install_faults(FaultPlan(seed=3, duplicate_rate=1.0))
        table = system.query("P0", QUERY)
        assert table == baseline
        assert system.network.metrics.duplicated_messages > 0

    def test_adhoc_rows_exact_under_full_duplication(self):
        baseline = adhoc_system().query("P0", QUERY)
        system = adhoc_system()
        system.network.install_faults(FaultPlan(seed=3, duplicate_rate=1.0))
        table = system.query("P0", QUERY)
        assert table == baseline

    def test_adhoc_duplicated_partial_plan_answered_once(self):
        """A network-duplicated PartialPlan must not double-decrement
        the root's outstanding-branch accounting (each forward token is
        answered at most once)."""
        system = adhoc_system()
        system.network.install_faults(FaultPlan(seed=5, duplicate_rate=1.0))
        root = system.peers["P0"]
        table = system.query("P0", QUERY)
        assert len(table) > 0
        assert root._delegations == {}
        # outstanding counters never went negative into a spurious
        # deepen/fail round: the query is gone from pending exactly once
        assert root.coordinator.in_flight() == 0


class TestLostMessages:
    def test_lost_submit_recovered_by_client_resubmit(self):
        """The first QuerySubmit vanishes in a partition window; the
        client's resubmit after the window heals the query."""
        system = hybrid_system()
        client = system.add_client("C1")
        plan = FaultPlan(
            partitions=(
                LinkPartition(frozenset({"C1"}), frozenset({"P0"}), 0.0, 40.0),
            )
        )
        system.network.install_faults(plan)
        query_id = client.submit("P0", QUERY)
        system.run()
        result = client.result(query_id)
        assert result is not None and result.error is None
        assert len(result.table) > 0
        assert system.network.metrics.retries > 0

    def test_duplicate_submit_answered_from_completed_cache(self):
        """A resubmit arriving after the answer was already sent gets
        the remembered result, not a second execution."""
        system = hybrid_system()
        client = system.add_client("C1")
        query_id = client.submit("P0", QUERY)
        system.run()
        processed = dict(system.network.metrics.queries_processed)
        first = client.result(query_id)
        # replay the exact submit (a late duplicate delivery)
        from repro.net.message import Message
        from repro.peers.protocol import QuerySubmit

        submit = QuerySubmit(query_id, QUERY, "C1")
        system.network.send(Message("C1", "P0", submit))
        client.results.pop(query_id)
        system.run()
        assert client.result(query_id).table == first.table
        # no second query execution was started
        assert dict(system.network.metrics.queries_processed) == processed


class TestGracefulDegradation:
    def test_partial_answer_with_coverage_when_unrepairable(self):
        """Vertical distribution: the second chain segment lives only
        on P1/P3/P5, so killing all three makes the query unrepairable
        — the root degrades to a coverage-annotated partial answer."""
        system = hybrid_system(distribution=Distribution.VERTICAL)
        system.network.install_faults(FaultPlan())
        client = system.add_client("C1")
        for victim in ("P1", "P3", "P5"):
            system.network.fail_peer(victim)
        query_id = client.submit("P0", QUERY)
        system.run()
        result = client.result(query_id)
        assert result is not None and result.error is None
        assert result.is_partial
        assert len(result.table) > 0
        coverage = result.coverage
        assert not coverage.is_complete
        assert coverage.answered and coverage.unanswered
        assert set(coverage.excluded_peers) >= {"P1", "P3", "P5"}
        assert system.network.metrics.partial_results == 1
        assert system.peers["P0"].coordinator.in_flight() == 0

    def test_partial_results_disabled_errors_instead(self):
        config = fast_config(partial_results=False)
        system = hybrid_system(distribution=Distribution.VERTICAL, config=config)
        system.network.install_faults(FaultPlan())
        client = system.add_client("C1")
        for victim in ("P1", "P3", "P5"):
            system.network.fail_peer(victim)
        query_id = client.submit("P0", QUERY)
        system.run()
        result = client.result(query_id)
        assert result is not None
        assert result.error is not None  # seed behaviour: hard failure
        assert result.table is None


class TestSeededReplay:
    def test_same_seed_identical_chaos_digest(self):
        def run(arch):
            system = hybrid_system(seed=2) if arch == "h" else adhoc_system(seed=2)
            plan = FaultPlan(
                seed=9,
                drop_rate=0.12,
                duplicate_rate=0.06,
                jitter=0.5,
                crashes=(CrashEvent(at=5.0, peer_id="P2", recover_at=300.0),),
            )
            return run_chaos(system, [("P0", QUERY)] * 4, plan)

        for arch in ("h", "a"):
            first, second = run(arch), run(arch)
            assert first.digest() == second.digest()
            assert first.answer_ratio >= 0.75

    def test_loss_and_crash_mostly_answered(self):
        system = hybrid_system(seed=4)
        plan = FaultPlan(
            seed=11,
            drop_rate=0.10,
            duplicate_rate=0.05,
            jitter=0.5,
            crashes=(CrashEvent(at=5.0, peer_id="P2", recover_at=400.0),),
        )
        chaos = run_chaos(system, [("P0", QUERY)] * 5, plan)
        assert chaos.answer_ratio >= 0.9
