"""A deterministic discrete-event network simulator.

The paper evaluates SQPeer architecturally; this simulator provides the
substrate on one machine: peers register as nodes, messages are
delivered in virtual-time order with per-link latency and bandwidth,
and every delivery is metered.  A single-threaded event loop with an
explicit seedable RNG makes every experiment bit-for-bit reproducible.
"""

from __future__ import annotations

import random
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Protocol, Set, Tuple,
)

from ..errors import EventBudgetExhausted, NetworkError
from ..metrics.collectors import MetricSet
from ..obs.collect import TraceCollector
from ..obs.gauges import node_load
from ..obs.telemetry.flightrec import FlightRecorder
from ..obs.tracer import NULL_TRACER, Tracer
from ..resilience.faults import FaultInjector, FaultPlan
from ..transport.base import Transport
from ..transport.sim import SimTransport
from .message import DeliveryFailure, Message


def format_diagnostics(diagnostics: dict) -> str:
    """Render :meth:`Network.diagnostics` as an indented text report."""
    lines = [
        f"  virtual time     : {diagnostics['now']:.2f}",
        f"  pending events   : {diagnostics['pending_events']}"
        + (
            f" (oldest at t={diagnostics['oldest_pending_event_at']:.2f})"
            if diagnostics["oldest_pending_event_at"] is not None
            else ""
        ),
    ]
    if diagnostics.get("transport"):
        sockets = diagnostics.get("open_sockets")
        lines.append(
            f"  transport        : {diagnostics['transport']}"
            + (f" ({sockets} open sockets)" if sockets is not None else "")
        )
    inflight = diagnostics["inflight_queries"]
    lines.append(
        f"  queries in flight: {len(inflight)}"
        + (f" ({', '.join(inflight[:8])}{'…' if len(inflight) > 8 else ''})"
           if inflight else "")
    )
    if diagnostics["down_peers"]:
        lines.append(f"  down peers       : {', '.join(diagnostics['down_peers'])}")
    for peer_id, gauges in diagnostics["peers"].items():
        busy = " ".join(f"{name}={value}" for name, value in gauges.items() if value)
        lines.append(f"  peer {peer_id:<12}: {busy}")
    return "\n".join(lines)


class Node(Protocol):
    """What the network requires of a registered peer object."""

    peer_id: str

    def receive(self, message: Message, network: "Network") -> None:
        """Handle one delivered message (may send more)."""


class Link:
    """Point-to-point link parameters."""

    __slots__ = ("latency", "cost_per_byte")

    def __init__(self, latency: float = 1.0, cost_per_byte: float = 0.0001):
        self.latency = latency
        self.cost_per_byte = cost_per_byte

    def delay(self, size: int) -> float:
        return self.latency + size * self.cost_per_byte


class Network:
    """The simulated P2P network.

    Args:
        seed: RNG seed (topology generators and protocols that need
            randomness draw from :attr:`rng`).
        default_latency: Latency of links not configured explicitly.
        default_cost_per_byte: Transfer delay per byte for such links.
        observability: Run the ``repro.obs`` tracing layer.  On (the
            default), :attr:`tracer` mints spans on the virtual clock
            into a bounded :attr:`trace_collector`; off, it is the
            shared no-op recorder and the query path runs at seed cost.
        transport: The :class:`~repro.transport.base.Transport` moving
            messages and time.  ``None`` (the default) selects
            :class:`~repro.transport.sim.SimTransport`, whose behaviour
            is bit-identical to the pre-seam simulator; a live
            :class:`~repro.transport.live.AsyncioTransport` runs the
            same peers over TCP sockets, one process per peer.
    """

    def __init__(
        self,
        seed: int = 0,
        default_latency: float = 1.0,
        default_cost_per_byte: float = 0.0001,
        observability: bool = True,
        transport: Optional[Transport] = None,
    ):
        self.transport = transport if transport is not None else SimTransport()
        self.transport.bind(self)
        self.rng = random.Random(seed)
        self.metrics = MetricSet()
        # observability (repro.obs): one tracer serves the whole
        # simulated network, standing in for per-process tracers plus
        # the collection backend of a real deployment
        if observability:
            self.trace_collector: Optional[TraceCollector] = TraceCollector()
            self.tracer = Tracer(
                clock=lambda: self.now,
                collector=self.trace_collector,
                metrics=self.metrics,
            )
        else:
            self.trace_collector = None
            self.tracer = NULL_TRACER
        # flight recorder (repro.obs.telemetry): control-plane events —
        # sheds, quarantines, replans, churn — in a bounded ring; like
        # the tracer it is uncharged, so recording perturbs nothing
        if observability:
            self.flight_recorder: Optional[FlightRecorder] = FlightRecorder(
                clock=lambda: self.now
            )
        else:
            self.flight_recorder = None
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._default_link = Link(default_latency, default_cost_per_byte)
        self._down: Set[str] = set()
        #: active partitions: messages between the two groups vanish
        self._cuts: List[Tuple[FrozenSet[str], FrozenSet[str]]] = []
        #: simulator events :meth:`run` has processed so far
        self.events_processed = 0
        # fault model (repro.resilience): no injector means the friendly
        # seed regime — no loss, and failures bounce omnisciently
        self.faults: Optional[FaultInjector] = None
        self.omniscient_bounces = True
        self._liveness_listeners: List[Callable[[str, bool], None]] = []

    @property
    def now(self) -> float:
        """The transport's clock (virtual time)."""
        return self.transport.now

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def register(self, node: Node) -> None:
        """Add a peer node; its ``peer_id`` becomes its address."""
        if node.peer_id in self._nodes:
            raise NetworkError(f"duplicate peer id {node.peer_id}")
        self._nodes[node.peer_id] = node
        self.transport.on_register(node)

    def node(self, peer_id: str) -> Node:
        try:
            return self._nodes[peer_id]
        except KeyError:
            raise NetworkError(f"unknown peer {peer_id}") from None

    def peer_ids(self) -> List[str]:
        return sorted(self._nodes)

    def set_link(
        self, a: str, b: str, latency: float, cost_per_byte: float = 0.0001
    ) -> None:
        """Configure the (symmetric) link between two peers."""
        link = Link(latency, cost_per_byte)
        self._links[(a, b)] = link
        self._links[(b, a)] = link

    def link(self, a: str, b: str) -> Link:
        return self._links.get((a, b), self._default_link)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def fail_peer(self, peer_id: str) -> None:
        """Mark a peer as down.  With omniscient bounces (the seed
        regime) messages to it come back as :class:`DeliveryFailure`
        notifications; under a realistic :class:`FaultPlan` they simply
        vanish and senders must time out."""
        if peer_id in self._down:
            return
        self._down.add(peer_id)
        self.emit_event("peer_down", peer=peer_id)
        self._notify_liveness(peer_id, alive=False)

    def recover_peer(self, peer_id: str) -> None:
        if peer_id not in self._down:
            return
        self._down.discard(peer_id)
        self.emit_event("peer_up", peer=peer_id)
        self._notify_liveness(peer_id, alive=True)

    def is_down(self, peer_id: str) -> bool:
        return peer_id in self._down

    def add_liveness_listener(self, listener: Callable[[str, bool], None]) -> None:
        """Subscribe to ``(peer_id, alive)`` transitions from
        :meth:`fail_peer` / :meth:`recover_peer`.  This models control
        out-of-band of the data plane (an operator marking a node dead),
        used to keep caches honest — peers still *learn* liveness from
        observation when the fault plan is non-omniscient."""
        self._liveness_listeners.append(listener)

    def _notify_liveness(self, peer_id: str, alive: bool) -> None:
        for listener in self._liveness_listeners:
            listener(peer_id, alive)

    def emit_event(self, kind: str, peer: Optional[str] = None, **fields) -> None:
        """Record one control-plane event in the flight recorder (a
        no-op when observability is off — callers need no guard)."""
        if self.flight_recorder is not None:
            self.flight_recorder.record(kind, peer=peer, **fields)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def install_faults(self, plan: FaultPlan) -> FaultInjector:
        """Arm a fault plan: hook the injector into message delivery.
        Returns the injector (its counters feed chaos reports)."""
        injector = FaultInjector(plan)
        self.faults = injector
        self.omniscient_bounces = plan.omniscient
        return injector

    def partition(self, left: Iterable[str], right: Iterable[str]) -> None:
        """Cut every link between two groups of nodes: from now on a
        message crossing the cut is dropped on delivery, silently (the
        sender only learns through its own timeouts)."""
        self._cuts.append((frozenset(left), frozenset(right)))

    def heal(self, left: Iterable[str], right: Iterable[str]) -> None:
        """Lift the :meth:`partition` between the same two groups."""
        left, right = frozenset(left), frozenset(right)
        self._cuts = [
            cut for cut in self._cuts if cut not in ((left, right), (right, left))
        ]

    def severed(self, src: str, dst: str) -> bool:
        """Whether an active partition separates ``src`` and ``dst``."""
        return any(
            (src in left and dst in right) or (src in right and dst in left)
            for left, right in self._cuts
        )

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Schedule delivery of a message (or of its failure bounce)."""
        if message.src not in self._nodes:
            raise NetworkError(f"unknown sender {message.src}")
        if message.dst not in self._nodes:
            if not self.transport.routes(message.dst):
                raise NetworkError(f"unknown destination {message.dst}")
            # destination lives in another process: meter and hand the
            # message to the wire (failures come back as bounces)
            link = self.link(message.src, message.dst)
            self.metrics.record_message(
                message.kind, message.src, message.dst, message.size,
                delay=link.delay(message.size),
            )
            if message.kind == "DataPacket":
                self.metrics.record_batch(message.payload.rows)
            self.transport.transmit_remote(message)
            return
        link = self.link(message.src, message.dst)
        delay = link.delay(message.size)
        self.metrics.record_message(
            message.kind, message.src, message.dst, message.size, delay=delay
        )
        if message.kind == "DataPacket":
            # batched-shipping accounting: each DataPacket carries
            # one binding batch; how full it is drives the batch-size
            # experiments (bench_batch_size)
            self.metrics.record_batch(message.payload.rows)
        faults = self.faults
        if faults is not None:
            if faults.drops(message):
                self.metrics.count("dropped_messages")
                return
            delay += faults.extra_delay()
        if message.dst in self._down and self.omniscient_bounces:
            self._bounce(message, delay)
            return
        self._schedule(delay, lambda: self._deliver(message))
        if faults is not None and faults.duplicates(message):
            self.metrics.count("duplicated_messages")
            self._schedule(delay + faults.extra_delay(), lambda: self._deliver(message))

    def _bounce(self, message: Message, delay: Optional[float] = None) -> None:
        """Schedule a metered :class:`DeliveryFailure` back to the sender
        (failure traffic counts against the messaging experiments just
        like any other message)."""
        bounce = Message(message.dst, message.src, DeliveryFailure(message))
        if delay is None:
            delay = self.link(message.dst, message.src).delay(bounce.size)
        self.metrics.record_message(bounce.kind, bounce.src, bounce.dst, bounce.size)
        self._schedule(delay, lambda: self._deliver(bounce))

    def _deliver(self, message: Message) -> None:
        if message.dst in self._down:
            # destination failed while the message was in flight
            if isinstance(message.payload, DeliveryFailure):
                return
            if self.omniscient_bounces:
                self._bounce(message)
            else:
                self.metrics.count("dropped_messages")
            return
        if self._cuts and self.severed(message.src, message.dst):
            self.metrics.count("dropped_messages")
            return
        self._nodes[message.dst].receive(message, self)

    def deliver_remote(self, message: Message) -> None:
        """Deliver a message that arrived over a live transport's wire.

        Frames for nodes that already left (or were never here — stale
        address books) are dropped; the sender's retry/suspicion
        machinery handles the silence, exactly as for an in-sim drop.
        """
        if message.dst not in self._nodes or message.dst in self._down:
            self.metrics.count("dropped_messages")
            return
        self._nodes[message.dst].receive(message, self)

    def bounce_remote(self, message: Message) -> None:
        """Synthesise a :class:`DeliveryFailure` for a message the live
        transport could not put on the wire (connection refused/reset
        after the reconnect budget) — the real-deployment event the
        simulator's omniscient bounces stand in for."""
        bounce = Message(message.dst, message.src, DeliveryFailure(message))
        self.metrics.record_message(bounce.kind, bounce.src, bounce.dst, bounce.size)
        self._schedule(0.0, lambda: self.deliver_remote(bounce))

    def _schedule(self, delay: float, action: Callable[[], None]) -> None:
        self.transport.schedule(delay, action)

    def call_later(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule an arbitrary callback (protocol timers)."""
        if delay < 0:
            raise NetworkError("cannot schedule in the past")
        self._schedule(delay, action)

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def run(self, max_events: int = 1_000_000, until: Optional[float] = None) -> int:
        """Process events in time order; returns the number processed.

        Raises:
            EventBudgetExhausted: If ``max_events`` is exhausted (a
                protocol loop that never quiesces is a bug, not a
                workload).  The exception's message and
                ``diagnostics`` attribute describe what was still in
                flight — queries, per-peer queue depths, the oldest
                pending event, the active transport — so a livelocked
                workload is debuggable instead of a bare budget number.
        """
        processed = self.transport.run(max_events, until)
        self.events_processed += processed
        return processed

    def pending_events(self) -> int:
        return self.transport.pending_events()

    def diagnostics(self) -> dict:
        """A point-in-time report of what the network is still doing.

        Gathered on demand (nothing is book-kept for it): the virtual
        clock, the pending-event horizon, every query with an open
        latency attempt, and per-peer load read off the live peer
        objects — active coordinations, admission-queue depth, queued
        routing requests, open channels.
        """
        per_peer: Dict[str, Dict[str, int]] = {}
        for peer_id in sorted(self._nodes):
            load = node_load(self._nodes[peer_id])
            gauges = {
                name: load[name]
                for name in (
                    "pending_queries",
                    "queued_queries",
                    "queued_route_requests",
                    "open_channels",
                )
            }
            if any(gauges.values()):
                per_peer[peer_id] = gauges
        oldest = getattr(self.transport, "oldest_pending_at", lambda: None)()
        out = {
            "now": self.now,
            "pending_events": self.transport.pending_events(),
            "oldest_pending_event_at": oldest,
            "inflight_queries": self.metrics.inflight_query_ids(),
            "peers": per_peer,
            "down_peers": sorted(self._down),
            "transport": self.transport.kind,
        }
        out.update(self.transport.diagnostics_extra())
        return out

    def __repr__(self) -> str:
        return (
            f"Network(peers={len(self._nodes)}, down={len(self._down)}, "
            f"t={self.now:.2f}, pending={self.transport.pending_events()})"
        )
