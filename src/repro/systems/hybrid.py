"""The hybrid (super-peer) P2P architecture (paper Section 3.1).

Simple peers push their active-schemas to the super-peer responsible
for their SON when they join.  Query evaluation has two sequential
phases: **routing**, performed exclusively at super-peers (the
coordinator sends a :class:`~repro.peers.protocol.RouteRequest` and
receives the annotated query pattern), and **processing/execution**,
performed by the simple peers (plan generation, channel deployment,
result assembly) — exactly Figure 6's flow.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Optional, Sequence

from ..core.adaptivity import ReplanBudget
from ..core.cost import Statistics
from ..errors import PeerError
from ..net.message import Message
from ..net.simulator import Network
from ..resilience import HeartbeatEmitter, ResilienceConfig
from ..peers.base import PeerBase
from ..peers.client import ClientPeer
from ..peers.protocol import Advertise, RouteBusy, RouteReply, RouteRequest
from ..peers.simple import PendingQuery, SimplePeer
from ..peers.super import SuperPeer
from ..workload_engine import AdmissionControl, FairScheduler, WorkloadReport, WorkloadSpec
from ..workload_engine import serve as _serve_workload
from ..rdf.graph import Graph
from ..rdf.schema import Schema


class HybridPeer(SimplePeer):
    """A simple peer in the hybrid architecture.

    Args:
        home_super_peer: The super-peer this peer clusters under (the
            one responsible for its community schema's SON).
    """

    def __init__(self, peer_id: str, base: Optional[PeerBase] = None,
                 home_super_peer: str = "", home_super_peers=None, **kwargs):
        super().__init__(peer_id, base, **kwargs)
        if not home_super_peer:
            raise PeerError(f"hybrid peer {peer_id} needs a home super-peer")
        self.home_super_peer = home_super_peer
        #: schema URI -> super-peer, for peers in several SONs
        #: ("a simple-peer can be connected to multiple super-peers")
        self.home_super_peers = dict(home_super_peers or {})
        #: RouteBusy back-offs tolerated per routing round before the
        #: query gives up on its overloaded super-peer
        self.route_busy_budget = 5

    def _home_for(self, schema_uri: str) -> str:
        return self.home_super_peers.get(schema_uri, self.home_super_peer)

    def join(self, network: Network) -> None:
        """Register and push each base's active-schema to the
        super-peer responsible for that SON.  With cost-based planning
        on, the push carries the peer's stat summary too."""
        super().join(network)
        for advertisement in self.own_advertisements():
            self.send(
                self._home_for(advertisement.schema_uri),
                Advertise(
                    advertisement,
                    rejoin=self.rejoining,
                    stats=self.own_stat_summary(),
                ),
            )

    def _advertisement_targets(self):
        targets = {self.home_super_peer, *self.home_super_peers.values()}
        return sorted(targets)

    def _obtain_routing(self, pending: PendingQuery) -> None:
        """Phase 1: ask the super-peer backbone for the annotation —
        the super-peer of the query's schema, when this peer knows it."""
        target = self._home_for(pending.pattern.schema.namespace.uri)
        pending.awaiting_routing = True
        pending.routing_attempts += 1
        # one span per routing round: the super-peer's route span (and
        # any backbone hops) stitch under it via the request's context
        pending.routing_span = self._tracer().start_span(
            "routing",
            peer=self.peer_id,
            parent=pending.span.context(),
            mode="super-peer",
            target=target,
        )
        self.send(
            target,
            RouteRequest(pending.query_id, pending.pattern, self.peer_id),
            trace=pending.routing_span.context(),
        )
        if self.routing_retry is not None:
            self._arm_routing_timeout(
                pending.query_id, target, pending.routing_attempts, 1
            )

    def _arm_routing_timeout(
        self, query_id: str, target: str, round_no: int, attempt: int
    ) -> None:
        """Deadline for one RouteRequest attempt: resend with backoff
        while the budget lasts, then give up on the routing phase (the
        super-peer is unreachable — degrade or error)."""
        network = self._require_network()
        retry = self.routing_retry

        def check() -> None:
            pending = self._pending.get(query_id)
            if pending is None or not pending.awaiting_routing:
                return
            if pending.routing_attempts != round_no:
                return  # a replan already started a newer routing round
            if retry.attempts_left(attempt + 1):
                network.metrics.record_retry()
                pending.routing_span.annotate(f"retry attempt={attempt + 1}")
                self.send(
                    target,
                    RouteRequest(query_id, pending.pattern, self.peer_id),
                    trace=pending.routing_span.context(),
                )
                self._arm_routing_timeout(query_id, target, round_no, attempt + 1)
            else:
                self.suspect_peer(target)
                pending.routing_span.finish("timeout")
                self._give_up(pending, f"routing via {target} timed out")

        network.call_later(retry.timeout(attempt), check)

    def handle_RouteBusy(self, message: Message) -> None:
        """The super-peer's routing service shed our request: back off
        and re-send, up to :attr:`route_busy_budget` times per routing
        round, then give up (degrade to a partial answer or error)."""
        busy: RouteBusy = message.payload
        pending = self._pending.get(busy.query_id)
        if pending is None or not pending.awaiting_routing:
            return  # answered or superseded in the meantime
        pending.routing_busy_retries += 1
        if pending.routing_busy_retries > self.route_busy_budget:
            pending.routing_span.finish("busy")
            self._give_up(pending, f"routing via {message.src} is overloaded")
            return
        network = self._require_network()
        network.metrics.record_retry()
        pending.routing_span.annotate(
            f"route busy: backing off {busy.retry_after:g}"
        )
        round_no = pending.routing_attempts
        target = message.src

        def resend() -> None:
            current = self._pending.get(busy.query_id)
            if current is None or not current.awaiting_routing:
                return
            if current.routing_attempts != round_no:
                return  # a replan already started a newer routing round
            self.send(
                target,
                RouteRequest(busy.query_id, current.pattern, self.peer_id),
                trace=current.routing_span.context(),
            )

        network.call_later(busy.retry_after, resend)

    def handle_RouteReply(self, message: Message) -> None:
        """Phase 2: generate the plan and execute it."""
        reply: RouteReply = message.payload
        pending = self._pending.get(reply.query_id)
        if pending is None:
            return  # stale reply for an already-answered query
        if not pending.awaiting_routing:
            return  # duplicate delivery of a reply already acted on
        pending.awaiting_routing = False
        pending.routing_span.set(peers=len(reply.annotated.all_peers()))
        pending.routing_span.finish()
        self._on_annotated(pending, reply.annotated)


class HybridSystem:
    """Builder/harness for a hybrid deployment.

    Example:
        >>> system = HybridSystem(schema)                  # doctest: +SKIP
        >>> system.add_super_peer("SP1")                   # doctest: +SKIP
        >>> system.add_peer("P1", graph, "SP1")            # doctest: +SKIP
        >>> table = system.query("P1", "SELECT ...")       # doctest: +SKIP
    """

    def __init__(
        self,
        schema: Schema,
        seed: int = 0,
        default_latency: float = 1.0,
        statistics: Optional[Statistics] = None,
        cache_enabled: bool = True,
        observability: bool = True,
        batch_size: int = 256,
        cost_based: bool = False,
        transport=None,
        **peer_options,
    ):
        self.schema = schema
        self.network = Network(
            seed=seed,
            default_latency=default_latency,
            observability=observability,
            transport=transport,
        )
        # cost-based planning needs one statistics store the whole
        # deployment shares: peers fold advertised summaries and
        # observed link costs into it, super-peers do the same
        if statistics is None and cost_based:
            statistics = Statistics()
        self.statistics = statistics
        self.cache_enabled = cache_enabled
        self.batch_size = batch_size
        self.cost_based = cost_based
        self.peer_options = dict(peer_options)
        # deployment-wide switch (--no-cache): every super-peer index
        # and simple peer runs cold unless a peer option overrides it
        self.peer_options.setdefault("cache_enabled", cache_enabled)
        # deployment-wide shipping / planning mode (--batch-size / --cost-based)
        self.peer_options.setdefault("batch_size", batch_size)
        self.peer_options.setdefault("cost_based", cost_based)
        self.super_peers: Dict[str, SuperPeer] = {}
        self.peers: Dict[str, HybridPeer] = {}
        self.clients: Dict[str, ClientPeer] = {}
        self._backbone_directory: Dict[str, str] = {}
        self._client_counter = itertools.count(1)
        #: set by :meth:`enable_resilience`; later-added peers inherit it
        self.resilience: Optional[ResilienceConfig] = None
        self.heartbeat_emitters: Dict[str, HeartbeatEmitter] = {}
        #: set by :meth:`enable_admission` / :meth:`enable_fair_scheduling`;
        #: later-added peers inherit both
        self.admission: Optional[AdmissionControl] = None
        self.fair_quantum: Optional[float] = None

    # ------------------------------------------------------------------
    # concurrency (repro.workload_engine)
    # ------------------------------------------------------------------
    def enable_admission(
        self, control: Optional[AdmissionControl] = None
    ) -> AdmissionControl:
        """Bound what the deployment accepts: coordinators park overflow
        queries and shed beyond their queue, super-peers pace their
        routing service and answer saturation with RouteBusy, and
        per-query deadlines (when set) cancel stragglers."""
        control = control or AdmissionControl.default()
        self.admission = control
        for peer in self.peers.values():
            peer.admission = control
        for super_peer in self.super_peers.values():
            super_peer.admission = control
        return control

    def enable_fair_scheduling(self, quantum: float = 0.25) -> None:
        """Give every simple peer a fair per-query scheduler: local work
        units (subplan starts, scans, channel completions) interleave
        round-robin across in-flight queries, one per ``quantum`` of
        virtual time (a slice of peer CPU)."""
        self.fair_quantum = quantum
        for peer in self.peers.values():
            if peer.scheduler is None:
                peer.install_scheduler(FairScheduler(self.network, quantum))

    def serve(self, spec: WorkloadSpec, max_events: int = 2_000_000) -> WorkloadReport:
        """Drive a workload against this deployment: many queries in
        flight concurrently on the virtual clock, injected mid-run by
        the driver.  Returns the workload report (outcomes, throughput,
        latency percentiles)."""
        return _serve_workload(self, spec, max_events=max_events)

    # ------------------------------------------------------------------
    # resilience
    # ------------------------------------------------------------------
    def enable_resilience(
        self, config: Optional[ResilienceConfig] = None
    ) -> ResilienceConfig:
        """Turn the resilience layer on deployment-wide: channel and
        routing retries, client resubmits, quarantine-filtered routing,
        partial results, and a heartbeat failure detector per
        super-peer (drive it with
        :func:`~repro.resilience.harness.heartbeat_round`)."""
        config = config or ResilienceConfig.default()
        self.resilience = config
        for super_peer in self.super_peers.values():
            self._apply_resilience_super(super_peer)
        for peer in self.peers.values():
            self._apply_resilience_peer(peer)
        for client in self.clients.values():
            client.submit_retry = config.client_retry
        return config

    def _apply_resilience_peer(self, peer: "HybridPeer") -> None:
        config = self.resilience
        peer.channel_retry = config.channel_retry
        peer.routing_retry = config.routing_retry
        peer.quarantine_enabled = config.quarantine_enabled
        peer.partial_results = config.partial_results
        peer.replan_budget = ReplanBudget(
            config.max_replans, config.replan_delay, config.replan_backoff
        )
        self.heartbeat_emitters[peer.peer_id] = HeartbeatEmitter(
            peer, peer._advertisement_targets(), interval=config.heartbeat_interval
        )

    def _apply_resilience_super(self, super_peer: SuperPeer) -> None:
        config = self.resilience
        super_peer.quarantine_enabled = config.quarantine_enabled
        super_peer.watch_cluster(config.suspicion_timeout, config.heartbeat_interval)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_super_peer(
        self, peer_id: str, schemas: Optional[Iterable[Schema]] = None
    ) -> SuperPeer:
        super_peer = SuperPeer(
            peer_id,
            schemas=list(schemas) if schemas is not None else [self.schema],
            backbone_directory=self._backbone_directory,
            cache_enabled=self.cache_enabled,
            statistics=self.statistics,
        )
        super_peer.join(self.network)
        self.super_peers[peer_id] = super_peer
        if self.resilience is not None:
            self._apply_resilience_super(super_peer)
        if self.admission is not None:
            super_peer.admission = self.admission
        return super_peer

    def add_peer(
        self,
        peer_id: str,
        graph: Graph,
        home_super_peer: str,
        schema: Optional[Schema] = None,
        secondary: Sequence = (),
        views: Sequence = (),
    ) -> HybridPeer:
        """Add a simple peer.

        Args:
            secondary: Extra SON memberships as ``(graph, schema,
                super_peer_id)`` triples — the peer advertises each base
                to the corresponding super-peer.
            views: RVL views populating the base (virtual scenario) —
                lets a deployment start from a mid-life base snapshot,
                e.g. the live-data oracle twins.
        """
        if home_super_peer not in self.super_peers:
            raise PeerError(f"unknown super-peer {home_super_peer}")
        base = PeerBase(graph, schema or self.schema, views=views)
        secondary_bases = []
        homes = {}
        for extra_graph, extra_schema, super_id in secondary:
            if super_id not in self.super_peers:
                raise PeerError(f"unknown super-peer {super_id}")
            secondary_bases.append(PeerBase(extra_graph, extra_schema))
            homes[extra_schema.namespace.uri] = super_id
        peer = HybridPeer(
            peer_id,
            base,
            home_super_peer=home_super_peer,
            home_super_peers=homes,
            secondary_bases=secondary_bases,
            statistics=self.statistics,
            **self.peer_options,
        )
        peer.join(self.network)
        self.peers[peer_id] = peer
        if self.resilience is not None:
            self._apply_resilience_peer(peer)
        if self.admission is not None:
            peer.admission = self.admission
        if self.fair_quantum is not None:
            peer.install_scheduler(FairScheduler(self.network, self.fair_quantum))
        return peer

    def add_client(self, peer_id: Optional[str] = None) -> ClientPeer:
        peer_id = peer_id or f"client{next(self._client_counter)}"
        client = ClientPeer(peer_id)
        client.join(self.network)
        self.clients[peer_id] = client
        if self.resilience is not None:
            client.submit_retry = self.resilience.client_retry
        return client

    @classmethod
    def from_scenario(cls, scenario, **kwargs) -> "HybridSystem":
        """Build Figure 6's deployment from a
        :class:`~repro.workloads.paper.HybridScenario`."""
        system = cls(scenario.schema, **kwargs)
        for super_id in scenario.super_peers:
            system.add_super_peer(super_id)
        for peer_id in scenario.simple_peers:
            system.add_peer(
                peer_id, scenario.bases[peer_id], scenario.home_super_peer[peer_id]
            )
        return system

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def submit(self, via_peer: str, text: str, client: Optional[ClientPeer] = None,
               max_peers=None, limit=None, order_by=None, descending=False) -> str:
        """Submit a query through a simple peer; returns the query id.

        Call :meth:`run` afterwards to drive the event loop.  Accepts
        the same ``client`` and result-shaping keywords as
        :meth:`query`.
        """
        client = client or (
            next(iter(self.clients.values())) if self.clients else self.add_client()
        )
        return client.submit(
            via_peer, text, max_peers=max_peers, limit=limit,
            order_by=order_by, descending=descending,
        )

    def run(self, max_events: int = 1_000_000) -> int:
        return self.network.run(max_events=max_events)

    def query(self, via_peer: str, text: str, max_peers=None, limit=None,
              order_by=None, descending=False,
              client: Optional[ClientPeer] = None):
        """Submit, run to quiescence, and return the result table.

        Args:
            via_peer: The coordinating simple peer.
            text: RQL source text.
            max_peers: Per-pattern broadcast bound (Section 5).
            limit: Top-N bound on the answer.
            client: Submit through this client instead of the first
                registered one (same keyword :meth:`submit` honours).

        Raises:
            PeerError: When the query failed (carries the reason).
        """
        client = client or (
            next(iter(self.clients.values())) if self.clients else self.add_client()
        )
        query_id = client.submit(
            via_peer, text, max_peers=max_peers, limit=limit,
            order_by=order_by, descending=descending,
        )
        self.run()
        result = client.result(query_id)
        if result is None:
            raise PeerError(f"query {query_id} produced no reply")
        if result.error is not None:
            raise PeerError(f"query {query_id} failed: {result.error}")
        return result.table
