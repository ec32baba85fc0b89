"""Event-budget exhaustion is diagnosable, not a bare number.

A protocol loop that never quiesces used to surface as
``NetworkError("event budget exhausted")`` and nothing else.  Under
concurrent serving that is undebuggable — *which* of the dozens of
in-flight queries livelocked, and where was it stuck?  The budget
error now carries a point-in-time diagnostics report.
"""

import pytest

from repro.config import PeerConfig
from repro.errors import EventBudgetExhausted, NetworkError
from repro.net.simulator import Network
from repro.systems import HybridSystem
from repro.workload_engine import WorkloadSpec
from repro.workloads.paper import PAPER_QUERY, hybrid_scenario


def _livelocked_network():
    """A network with a timer that reschedules itself forever."""
    network = Network(seed=0)

    def tick():
        network.call_later(1.0, tick)

    network.call_later(0.0, tick)
    return network


class TestBudgetExhaustion:
    def test_raises_subclass_of_network_error(self):
        network = _livelocked_network()
        with pytest.raises(NetworkError, match="event budget exhausted"):
            network.run(max_events=50)

    def test_message_embeds_the_report(self):
        network = _livelocked_network()
        with pytest.raises(EventBudgetExhausted) as excinfo:
            network.run(max_events=50)
        message = str(excinfo.value)
        assert "event budget exhausted (50 events)" in message
        assert "pending events" in message

    def test_diagnostics_name_the_stuck_queries(self):
        """A serving run cut off mid-flight reports which queries were
        still open and what each peer was holding."""
        system = HybridSystem.from_scenario(
            hybrid_scenario(), config=PeerConfig(cache_enabled=False)
        )
        system.run()  # settle advertisements within their own budget
        spec = WorkloadSpec(
            queries=(("P1", PAPER_QUERY),), count=8, mode="open",
            arrival_rate=5.0, burst_size=8, clients=2,
        )
        with pytest.raises(EventBudgetExhausted) as excinfo:
            system.serve(spec, max_events=30)
        diagnostics = excinfo.value.diagnostics
        assert diagnostics["pending_events"] > 0
        assert diagnostics["oldest_pending_event_at"] is not None
        assert diagnostics["inflight_queries"], "no in-flight queries reported"
        assert diagnostics["peers"], "no per-peer load reported"
        # the formatted report names the queries too
        assert diagnostics["inflight_queries"][0] in str(excinfo.value)

    def test_quiescing_run_is_unaffected(self):
        """A workload that drains within its budget raises nothing and
        still returns the processed-event count."""
        network = Network(seed=0)
        fired = []
        network.call_later(1.0, lambda: fired.append(True))
        assert network.run(max_events=10) == 1
        assert fired
