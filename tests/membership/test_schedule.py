"""Seeded churn scenarios (``Scenario.generate``): determinism and
validity."""

import pytest

from repro.scenario import Crash, Join, Leave, Restart, Scenario

MEMBERS = ["P1", "P2", "P3", "P4"]


def test_same_seed_same_schedule():
    one = Scenario.generate(11, MEMBERS, joiners=["P5"], horizon=2000)
    two = Scenario.generate(11, MEMBERS, joiners=["P5"], horizon=2000)
    assert list(one) == list(two)


def test_different_seeds_differ():
    schedules = {
        tuple(Scenario.generate(seed, MEMBERS, horizon=2000))
        for seed in range(6)
    }
    assert len(schedules) > 1


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Scenario((("explode", "P1"),))


def test_needs_initial_members():
    with pytest.raises(ValueError):
        Scenario.generate(0, [])


def test_events_are_time_ordered():
    events = list(Scenario.generate(3, MEMBERS, horizon=5000))
    assert events == sorted(events, key=lambda e: e.at)


@pytest.mark.parametrize("seed", range(8))
def test_validity_state_machine(seed):
    """Replaying any generated schedule keeps the membership machine
    consistent: only active peers leave/crash, nobody joins twice, at
    least one peer stays active, every crash eventually rejoins."""
    joiners = ["P5", "P6"]
    schedule = Scenario.generate(
        seed, MEMBERS, joiners=joiners, horizon=5000,
        leave_rate=0.004, crash_rate=0.008, join_rate=0.006,
    )
    active = set(MEMBERS)
    down = set()
    seen_joins = set()
    for event in schedule:
        if isinstance(event, Join):
            assert event.peer in joiners
            assert event.peer not in seen_joins, "joined twice"
            seen_joins.add(event.peer)
            active.add(event.peer)
        elif isinstance(event, Leave):
            assert event.peer in active
            active.discard(event.peer)
        elif isinstance(event, Crash):
            assert event.peer in active
            active.discard(event.peer)
            down.add(event.peer)
        elif isinstance(event, Restart):
            assert event.peer in down
            down.discard(event.peer)
            active.add(event.peer)
        assert active, "the overlay emptied out"
    assert not down, "a crashed peer never rejoined"


def test_rejoin_delay_bounds():
    schedule = Scenario.generate(
        5, MEMBERS, horizon=5000, crash_rate=0.01, leave_rate=0.0,
        join_rate=0.0, rejoin_delay=(40.0, 120.0),
    )
    pending = {}  # peer -> crash time awaiting its rejoin
    saw_crash = False
    for event in schedule:
        if isinstance(event, Crash):
            saw_crash = True
            pending[event.peer] = event.at
        elif isinstance(event, Restart):
            delay = event.at - pending.pop(event.peer)
            assert 40.0 <= delay <= 120.0
    assert saw_crash, "seed 5 drew no crashes; pick another seed"
    assert not pending


def test_for_peer_filters():
    schedule = Scenario.generate(2, MEMBERS, horizon=5000, crash_rate=0.01)
    for peer_id in MEMBERS:
        assert all(e.peer == peer_id for e in schedule.for_peer(peer_id))
