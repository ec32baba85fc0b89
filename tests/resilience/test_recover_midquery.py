"""``Network.recover_peer`` while queries are in flight.

The contract: a recovery landing mid-query must never hang the
coordination — the query finishes as a full answer (the replan budget
reached the recovered peer) or as a coverage-annotated partial (it did
not) — and the in-flight gauge drains back to zero either way.
"""

import pytest

from repro.resilience import ResilienceConfig
from repro.systems import HybridSystem
from repro.workloads.paper import PAPER_QUERY, paper_peer_bases, paper_schema


def _system(seed=0):
    system = HybridSystem(paper_schema(), seed=seed)
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    system.run()
    system.enable_resilience(ResilienceConfig.default(seed))
    return system


def _finish(system, client, query_id):
    system.run()
    result = client.result(query_id)
    assert result is not None, "query hung"
    return result


@pytest.mark.parametrize("recover_delay", [1.0, 5.0, 20.0, 80.0, 300.0])
def test_recovery_mid_query_never_hangs(recover_delay):
    """Whatever the recovery timing, the query terminates and the
    in-flight gauge drains."""
    system = _system()
    system.network.fail_peer("P2")
    client = system.add_client()
    query_id = client.submit("P1", PAPER_QUERY)
    system.network.call_later(
        recover_delay, lambda: system.network.recover_peer("P2")
    )
    result = _finish(system, client, query_id)
    assert result.error is None
    assert result.table is not None
    if result.coverage is not None:
        # degraded before the recovery landed: the partial is honest
        assert not result.coverage.is_complete
        assert "P2" in result.coverage.excluded_peers
    assert system.network.metrics.inflight_queries == 0


def test_prompt_recovery_upgrades_to_full_answer():
    """A recovery within the replan budget yields the uncrashed answer."""
    baseline_system = _system()
    baseline = baseline_system.query("P1", PAPER_QUERY)

    system = _system()
    system.network.fail_peer("P2")
    client = system.add_client()
    query_id = client.submit("P1", PAPER_QUERY)
    system.network.call_later(1.0, lambda: system.network.recover_peer("P2"))
    result = _finish(system, client, query_id)
    assert result.error is None and result.coverage is None
    assert len(result.table) == len(baseline)


def test_recovery_after_partial_does_not_leak_state():
    """A recovery landing only after the query already finished (full
    or degraded) leaves no pending coordination or in-flight
    accounting behind."""
    system = _system()
    system.network.fail_peer("P2")
    client = system.add_client()
    query_id = client.submit("P1", PAPER_QUERY)
    result = _finish(system, client, query_id)  # finishes without P2
    assert result.error is None
    system.network.recover_peer("P2")
    system.run()
    coordinator = system.peers["P1"]
    assert coordinator.coordinator.in_flight() == 0
    assert system.network.metrics.inflight_queries == 0
    # and the next query is whole again
    follow_up = system.query("P1", PAPER_QUERY)
    assert len(follow_up) > 0


def test_back_to_back_crash_recover_cycles():
    """Repeated fail/recover cycles with queries in flight stay sound."""
    system = _system(seed=3)
    for cycle in range(3):
        system.network.fail_peer("P2")
        client = system.add_client()
        query_id = client.submit("P1", PAPER_QUERY)
        system.network.call_later(
            10.0 * cycle + 1.0, lambda: system.network.recover_peer("P2")
        )
        result = _finish(system, client, query_id)
        assert result.error is None
        assert system.network.metrics.inflight_queries == 0
