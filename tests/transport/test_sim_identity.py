"""The transport seam must not change the simulator's behaviour.

``SimTransport`` is the default; these tests pin (a) that passing one
explicitly is identical to the default, (b) that seeded runs stay
deterministic through the seam, and (c) that event-budget diagnostics
now name the active transport.
"""

import pytest

from repro.errors import EventBudgetExhausted
from repro.transport import SimTransport
from repro.resilience.harness import PlayReport
from repro.scenario import Query, Scenario, play

from tests.difftest.harness import build_hybrid, make_workload


def _serve(workload, count=8, **system_options):
    system = build_hybrid(workload, **system_options)
    queries = [
        Query(workload.peer_ids[i % len(workload.peer_ids)],
              workload.queries[i % len(workload.queries)])
        for i in range(count)
    ]
    load = Scenario.arrivals(queries, count, rate=0.5, seed=workload.seed,
                             start=system.network.now)
    report = PlayReport.collect(play(load, system, shed_retries=3), system.network)
    return system, report


def _fingerprint(system, report):
    return (
        tuple((o.status, o.rows, o.error) for o in report.outcomes),
        system.network.metrics.summary(),
        system.network.now,
    )


def test_explicit_sim_transport_is_the_default():
    workload = make_workload(seed=5)
    default = _fingerprint(*_serve(workload))
    explicit = _fingerprint(*_serve(workload, transport=SimTransport()))
    assert explicit == default


def test_seeded_runs_are_bit_identical():
    workload = make_workload(seed=11)
    assert _fingerprint(*_serve(workload)) == _fingerprint(*_serve(workload))


def test_event_budget_diagnostics_name_the_transport():
    workload = make_workload(seed=2)
    system = build_hybrid(workload)
    client = system.add_client("c1")
    client.submit(workload.peer_ids[0], workload.queries[0])
    with pytest.raises(EventBudgetExhausted) as excinfo:
        system.network.run(max_events=3)
    assert excinfo.value.diagnostics.get("transport") == "sim"
    assert "transport" in str(excinfo.value)


def test_live_diagnostics_report_socket_counts():
    from repro.transport.live import AsyncioTransport

    transport = AsyncioTransport()
    try:
        extra = transport.diagnostics_extra()
        assert extra == {"open_sockets": 0, "address_book_size": 0}
    finally:
        transport.close()
