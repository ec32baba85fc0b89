"""Scenarios: one timeline of what happens to a deployment.

A :class:`Scenario` is a frozen tuple of events, and :func:`play` applies
it to a target: an in-sim :class:`~repro.systems.deployment.Deployment`
on the virtual clock, or a live :class:`~repro.deploy.launcher.
LiveCluster` of OS processes.  One scenario played on both targets is
the sim-vs-live differential test; a chaos run, a churn benchmark and
``repro launch`` are each one scenario played on one target.

Events apply in sequence, and a :class:`Query` is closed-loop: ``play``
waits for its answer and yields its
:class:`~repro.resilience.harness.QueryOutcome`.  An event given ``at=``
is armed on the simulator's virtual clock instead (a crash inside the
first query, a recovery long after it); one given ``mid_query=True`` is
applied just after the next query is submitted, before its answer is
awaited (a kill overlapping an in-flight query).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Mapping, Optional, Tuple

from .membership import MembershipManager
from .resilience.harness import QueryOutcome, classify, heartbeat_round
from .systems.deployment import Deployment

#: Virtual-time budget a live update revision has to be acknowledged.
UPDATE_ACK_TIMEOUT = 4_000.0


@dataclass(frozen=True)
class Query:
    """Pose ``text`` through the simple peer ``via`` (``limit``: keep the
    first rows, with any-k early stop) and await the answer."""

    via: str
    text: str
    limit: Optional[int] = None


@dataclass(frozen=True)
class _Happening:
    """When an event other than a query happens: in sequence (default),
    armed ``at`` a virtual time, or ``mid_query``."""

    at: Optional[float] = field(default=None, kw_only=True)
    mid_query: bool = field(default=False, kw_only=True)


@dataclass(frozen=True)
class Update(_Happening):
    """Inject revision ``revision`` (1-based) through the update driver
    :func:`play` was given; in sequence, wait for its acknowledgements."""

    revision: int = 1


@dataclass(frozen=True)
class _PeerEvent(_Happening):
    peer: str


@dataclass(frozen=True)
class Crash(_PeerEvent):
    """Abrupt failure, no snapshot, no goodbye (live: ``signal`` is sent
    to the process; ``"term"`` lets it flush its artifacts)."""

    signal: str = "kill"


class Restart(_PeerEvent):
    """A down peer comes back, from its durable store when it has one."""


class Join(_PeerEvent):
    """A fresh peer bootstraps into the running deployment."""


class Leave(_PeerEvent):
    """Graceful departure: snapshot, ``Goodbye``, then dark."""


@dataclass(frozen=True)
class Partition(_Happening):
    """Messages between the two groups vanish in flight (no bounce)."""

    left: frozenset
    right: frozenset

    def __post_init__(self):
        object.__setattr__(self, "left", frozenset(self.left))
        object.__setattr__(self, "right", frozenset(self.right))


class Heal(Partition):
    """Lift the partition between the same two groups."""


class Heartbeat(_Happening):
    """One liveness round: emitters beat, failure detectors poll."""


def _armed(event) -> bool:
    return isinstance(event, _Happening) and event.at is not None


@dataclass(frozen=True)
class Scenario:
    """A frozen sequence of events, checked as it is built: a restart
    must follow its peer's crash or departure on the same lane (in
    sequence, or strictly later on the clock), and a mid-query event
    needs a query after it."""

    events: Tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, (Query, _Happening)):
                raise ValueError(f"not a scenario event: {event!r}")
            if _armed(event) and event.mid_query:
                raise ValueError(f"{event}: armed at a time or mid-query, not both")
        sequence = [e for e in self.events if not _armed(e)]
        if sequence and not isinstance(sequence[-1], Query) and sequence[-1].mid_query:
            raise ValueError(f"{sequence[-1]}: no query follows it to overlap")
        _check_restarts(sequence)
        # a restart sorts before a crash at the same instant: it is early
        _check_restarts(sorted(
            filter(_armed, self.events),
            key=lambda e: (e.at, not isinstance(e, Restart)),
        ))

    def __iter__(self) -> Iterator:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def for_peer(self, peer: str) -> Tuple:
        """The membership events of one peer, in order."""
        return tuple(
            e for e in self.events if isinstance(e, _PeerEvent) and e.peer == peer
        )

    @classmethod
    def generate(
        cls,
        seed: int,
        members: Iterable[str],
        joiners: Iterable[str] = (),
        horizon: float = 600.0,
        leave_rate: float = 0.002,
        crash_rate: float = 0.004,
        join_rate: float = 0.003,
        rejoin_delay: Tuple[float, float] = (40.0, 120.0),
        min_active: int = 1,
    ) -> "Scenario":
        """Seeded churn, every event armed at its virtual time: superposed
        Poisson processes (rates per unit of virtual time) of leaves,
        crashes and joins of ``joiners`` over the initially active
        ``members``, each crash restarted after a ``rejoin_delay`` draw
        (possibly past the ``horizon``).  Only active peers leave or
        crash, at least ``min_active`` stay up, a joiner enters once."""
        rng = random.Random(seed)
        active = sorted(members)
        if not active:
            raise ValueError("churn needs at least one initial member")
        waiting = list(joiners)
        crashed: List[Tuple[float, str]] = []  # (restart at, peer)
        events: List[_Happening] = []
        total = leave_rate + crash_rate + join_rate
        now = 0.0
        while total > 0:
            now += rng.expovariate(total)
            if now >= horizon:
                break
            # first serve any restart that matured before this arrival
            while crashed and crashed[0][0] <= now:
                restart_at, peer = crashed.pop(0)
                events.append(Restart(peer, at=restart_at))
                active = sorted(active + [peer])
            draw = rng.uniform(0.0, total)
            if draw < join_rate and waiting:
                peer = waiting.pop(0)
                events.append(Join(peer, at=now))
                active = sorted(active + [peer])
            elif draw < join_rate + leave_rate:
                if len(active) > min_active:
                    events.append(Leave(active.pop(rng.randrange(len(active))), at=now))
            elif len(active) > min_active:
                peer = active.pop(rng.randrange(len(active)))
                events.append(Crash(peer, at=now))
                crashed = sorted(crashed + [(now + rng.uniform(*rejoin_delay), peer)])
        events += [Restart(peer, at=restart_at) for restart_at, peer in crashed]
        order = (Join, Leave, Crash, Restart)  # at one instant
        return cls(sorted(events, key=lambda e: (e.at, e.peer, order.index(type(e)))))


def _check_restarts(lane) -> None:
    down = set()
    for event in filter(lambda e: isinstance(e, _PeerEvent), lane):
        if isinstance(event, (Crash, Leave)):
            down.add(event.peer)
        elif isinstance(event, Join) or event.peer in down:
            down.discard(event.peer)
        else:
            crashes = [e.at for e in lane if isinstance(e, Crash)
                       and e.peer == event.peer and _armed(event) and e.at >= event.at]
            if crashes:
                raise ValueError(f"{event.peer} recovers at {event.at}, at or "
                                 f"before its crash at {min(crashes)}")
            raise ValueError(f"{event}: {event.peer} is not down")


def _named(event) -> Tuple[str, ...]:
    if isinstance(event, Query):
        return (event.via,)
    if isinstance(event, Partition):
        return tuple(sorted(event.left | event.right))
    return (event.peer,) if isinstance(event, _PeerEvent) else ()


# ----------------------------------------------------------------------
# targets: what each event does there (``actions``), who it may name
# (``known``), how to wait for it (``settle``) and how a query runs
# ----------------------------------------------------------------------
class _Sim:
    """A sim :class:`~repro.systems.deployment.Deployment`."""

    def __init__(self, system, client, bases, updates):
        self.system, self.network, self.client = system, system.network, client
        self.bases = dict(bases or {})
        membership = MembershipManager(system)
        network = self.network
        self.actions = {
            Crash: lambda e: membership.crash(e.peer),
            Restart: self._restart,
            Leave: lambda e: membership.leave(e.peer),
            Partition: lambda e: network.partition(e.left, e.right),
            Heal: lambda e: network.heal(e.left, e.right),
            Heartbeat: lambda e: heartbeat_round(system),
        }
        if system.super_peers:
            home = sorted(system.super_peers)[0]
            self.actions[Join] = lambda e: membership.join(
                e.peer, self.bases[e.peer], home
            )
        if updates is not None:
            self.actions[Update] = lambda e: updates.inject(e.revision - 1)
        self._rejoin = membership.rejoin

    def _restart(self, event) -> None:
        peer = self.system.peers.get(event.peer)
        if peer is not None and peer.state_store is not None:
            self._rejoin(event.peer)
        else:
            self.network.recover_peer(event.peer)

    def known(self, event) -> set:
        if isinstance(event, Join):
            return set(self.bases) - set(self.system.peers)
        peers = set(self.system.peers) | set(self.bases)
        if isinstance(event, (Query, Leave)):
            return peers
        return peers | set(self.network.peer_ids())

    def arm(self, event, apply) -> None:
        self.network.call_later(max(0.0, event.at - self.network.now),
                                lambda: apply(event))

    def settle(self, event) -> None:
        # deliver what the event sent; a crash, a cut or a heartbeat
        # round's beats ride with the next query's traffic instead
        if isinstance(event, (Restart, Join, Leave, Update)):
            self.network.run()

    def submit(self, query: Query, overlapped: bool):
        if self.client is None:
            self.client = self.system.add_client()
        return self.client.submit(query.via, query.text, limit=query.limit)

    def answer(self, query: Query, query_id: str) -> QueryOutcome:
        self.network.run()
        return classify(self.client.result(query_id), query.via, query_id)

    def finish(self) -> None:
        self.network.run()


class _Live:
    """A :class:`~repro.deploy.launcher.LiveCluster`: events in sequence
    only, each waited for (a crash until the process is gone, a restart
    or join until its advertisement settled, an update until acked)."""

    arm = None  # no clock to arm events on

    def __init__(self, cluster, updates):
        self.cluster, self.updates = cluster, updates
        self.actions = {
            Crash: lambda e: cluster.kill_peer(e.peer, sig=e.signal),
            Restart: lambda e: cluster.restart_peer(e.peer),
            Join: lambda e: cluster.spawn_peer(e.peer),
        }
        if updates is not None:
            self.actions[Update] = lambda e: updates.inject(e.revision - 1)

    def known(self, event) -> list:
        spec = self.cluster.spec
        if isinstance(event, Join):
            return spec.joiner_ids()
        if isinstance(event, Query):
            return spec.all_peer_ids()
        return spec.super_ids() + spec.all_peer_ids()

    def settle(self, event) -> None:
        if isinstance(event, Crash):
            self.cluster.processes[event.peer].wait(timeout=30)
        elif isinstance(event, Update):
            self.cluster.transport.run_until(
                lambda: self.updates.acked(event.revision), UPDATE_ACK_TIMEOUT
            )

    def submit(self, query: Query, overlapped: bool):
        if query.limit is not None:
            client = self.cluster.add_client()
            return client, client.submit(query.via, query.text, limit=query.limit)
        # unless a kill must overlap it, the paced LiveCluster.query asks
        return self.cluster.submit(query.via, query.text) if overlapped else None

    def answer(self, query: Query, ticket) -> QueryOutcome:
        if ticket is None:
            result = self.cluster.query(query.via, query.text)
        else:
            result = self.cluster.await_result(*ticket)
        return classify(result, query.via, result.query_id)

    def finish(self) -> None:
        pass


def play(
    scenario: Scenario,
    target,
    *,
    client=None,
    bases: Optional[Mapping] = None,
    updates=None,
    on_event: Optional[Callable[[object], None]] = None,
) -> Iterator[QueryOutcome]:
    """Play ``scenario`` on ``target``, yielding one
    :class:`~repro.resilience.harness.QueryOutcome` per :class:`Query`.

    The scenario is checked against the target when ``play`` is called,
    so one that cannot happen there — an unknown peer, an event the
    target cannot perform — raises :class:`ValueError` before anything
    runs (for a live cluster, before the caller starts it).

    Args:
        target: A sim :class:`~repro.systems.deployment.Deployment`, or a
            :class:`~repro.deploy.launcher.LiveCluster` the caller starts
            before iterating.
        client: In-sim, the client the queries go through (default: one
            new client).
        bases: In-sim, the base each joining peer brings.
        updates: The :class:`~repro.livedata.LiveDataDriver` that
            :class:`Update` events inject through.
        on_event: Called with each event other than a query once it has
            been applied.
    """
    if isinstance(target, Deployment):
        stage = _Sim(target, client, bases, updates)
    else:
        stage = _Live(target, updates)
    kind = type(target).__name__
    for event in scenario:
        if not isinstance(event, Query) and type(event) not in stage.actions:
            raise ValueError(f"this {kind} cannot perform {type(event).__name__}")
        if _armed(event) and stage.arm is None:
            raise ValueError(f"{event}: a {kind} plays events in sequence")
        known = stage.known(event)
        for peer in _named(event):
            if peer not in known:
                raise ValueError(f"{type(event).__name__} names unknown peer "
                                 f"{peer!r} (this {kind} has "
                                 f"{', '.join(sorted(known)) or 'none'})")
    return _perform(scenario, stage, on_event)


def _perform(scenario: Scenario, stage, on_event) -> Iterator[QueryOutcome]:
    def apply(event, settle: bool = False) -> None:
        stage.actions[type(event)](event)
        if settle:
            stage.settle(event)
        if on_event is not None:
            on_event(event)

    for event in filter(_armed, scenario):
        stage.arm(event, apply)
    overlapping = []
    for event in scenario:
        if isinstance(event, Query):
            ticket = stage.submit(event, bool(overlapping))
            for late in overlapping:
                apply(late)
            overlapping = []
            yield stage.answer(event, ticket)
        elif event.mid_query:
            overlapping.append(event)
        elif not _armed(event):
            apply(event, settle=True)
    stage.finish()
