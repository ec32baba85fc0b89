"""One harness, one frozen configuration value: the two systems differ
in topology only, and every node is configured through ``PeerConfig``."""

from dataclasses import FrozenInstanceError

import pytest

from repro.config import PeerConfig, reconfigure
from repro.core.adaptivity import ReplanBudget
from repro.errors import PeerError
from repro.peers.simple import SimplePeer
from repro.systems import AdhocPeer, AdhocSystem, HybridPeer, HybridSystem
from repro.systems.deployment import Deployment
from repro.workload_engine import AdmissionControl
from repro.workloads.paper import (
    PAPER_QUERY,
    hybrid_scenario,
    paper_peer_bases,
    paper_schema,
)

HARNESS = ("enable_resilience", "enable_admission", "enable_fair_scheduling",
           "serve", "add_client", "submit", "run", "query")


@pytest.mark.parametrize("name", HARNESS)
def test_harness_methods_are_defined_once(name):
    assert getattr(HybridSystem, name) is getattr(AdhocSystem, name)
    assert getattr(HybridSystem, name) is getattr(Deployment, name)


class TestPeerConfig:
    def test_is_frozen(self):
        config = PeerConfig()
        with pytest.raises(FrozenInstanceError):
            config.cost_based = True
        with pytest.raises(FrozenInstanceError):
            config.resilience.partial_results = True
        with pytest.raises(FrozenInstanceError):
            config.replan_budget.max_rounds = 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda **options: PeerConfig(**options),
            lambda **options: SimplePeer("P", **options),
            lambda **options: HybridPeer("P", home_super_peer="SP", **options),
            lambda **options: AdhocPeer("P", **options),
            lambda **options: HybridSystem(paper_schema(), **options),
            lambda **options: AdhocSystem(paper_schema(), **options),
            lambda **options: HybridSystem.from_scenario(hybrid_scenario(), **options),
        ],
        ids=["PeerConfig", "SimplePeer", "HybridPeer", "AdhocPeer",
             "HybridSystem", "AdhocSystem", "from_scenario"],
    )
    def test_unknown_option_is_a_type_error_at_construction(self, build):
        with pytest.raises(TypeError):
            build(use_shiping=True)

    def test_reconfigure_replaces_the_value_and_rejects_unknown_fields(self):
        peer = SimplePeer("P")
        before = peer.config
        reconfigure(peer, monitor_channels=True, monitor_interval=5.0)
        assert peer.config == PeerConfig(monitor_channels=True, monitor_interval=5.0)
        assert before == PeerConfig()  # the old value is untouched
        with pytest.raises(TypeError):
            reconfigure(peer, monitor_chanels=True)
        with pytest.raises(ValueError):
            reconfigure(peer, cache_enabled=False)  # the caches are built


def _hybrid(config=PeerConfig()):
    system = HybridSystem(paper_schema(), config=config)
    system.add_super_peer("SP1")
    bases = paper_peer_bases()
    for peer_id in ("P1", "P2"):
        system.add_peer(peer_id, bases[peer_id], "SP1")
    return system, bases


def _adhoc(config=PeerConfig()):
    system = AdhocSystem(paper_schema(), config=config)
    bases = paper_peer_bases()
    system.add_peer("P1", bases["P1"], ("P2",))
    system.add_peer("P2", bases["P2"], ("P1",))
    return system, bases


@pytest.mark.parametrize("build", [_hybrid, _adhoc], ids=["hybrid", "adhoc"])
def test_late_joiner_carries_the_same_config(build):
    """A node added *after* ``enable_*`` is configured exactly like one
    added before — there is one config, not a replay of attribute
    pokes."""
    system, bases = build(PeerConfig(batch_size=7))
    resilience = system.enable_resilience()
    control = system.enable_admission(AdmissionControl(max_concurrent=2))
    early = system.peers["P1"].config
    assert early == PeerConfig(batch_size=7, resilience=resilience, admission=control)
    if isinstance(system, HybridSystem):
        late = system.add_peer("P3", bases["P3"], "SP1")
        assert system.add_super_peer("SP2").config == early
        assert set(system.heartbeat_emitters) == {"P1", "P2", "P3"}
    else:
        late = system.add_peer("P3", bases["P3"], ("P1",))
        assert system.heartbeat_emitters == {} and system.super_peers == {}
    assert late.config == early
    assert system.add_client().config == early


def test_replan_budget_bounds_the_adaptation_loop():
    """``replan_budget`` is the one bound on replans: with a budget of
    zero rounds the first failed attempt is final, where the default
    budget routes around the dead peer."""
    def attempt(config):
        system = HybridSystem.from_scenario(hybrid_scenario(), config=config)
        system.run()
        system.network.fail_peer("P2")
        return system.query("P1", PAPER_QUERY)

    assert len(attempt(PeerConfig())) > 0
    with pytest.raises(PeerError, match="P2 failed"):
        attempt(PeerConfig(replan_budget=ReplanBudget(max_rounds=0)))
