"""The ad-hoc (self-adaptive SON) P2P architecture (paper Section 3.2).

Peers joining the system pull the active-schemas of their physical
neighbours, forming a semantic neighbourhood.  A query is routed from
*local* knowledge, so the resulting plan may contain ``Q@?`` holes;
the plan is then forwarded to peers known to answer part of it, which
**interleave** routing and processing with their own knowledge.  The
first peer able to fill every hole executes the complete plan and
streams the results back to the query's root.  When nobody in reach
can help, the root widens its neighbourhood with 2-depth / 3-depth
advertisement requests before giving up — constructing progressively
self-adaptive SONs.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.adaptivity import ReplanBudget
from ..core.annotations import AnnotatedQueryPattern, PeerAnnotation
from ..core.algebra import PlanNode, Scan
from ..core.cost import Statistics
from ..errors import PeerError
from ..execution.encoded import decode_cells, encode_cells
from ..net.message import Message
from ..net.simulator import Network
from ..obs.tracer import NULL_SPAN
from ..peers.base import PeerBase
from ..peers.client import ClientPeer
from ..peers.protocol import (
    AdvertisementReply,
    AdvertisementRequest,
    DelegatedResult,
    PartialPlan,
)
from ..peers.simple import PendingQuery, SimplePeer
from ..rdf.graph import Graph
from ..rdf.schema import Schema
from ..resilience import ResilienceConfig
from ..rql.bindings import BindingTable
from ..rql.pattern import QueryPattern
from ..workload_engine import AdmissionControl, FairScheduler, WorkloadReport, WorkloadSpec
from ..workload_engine import serve as _serve_workload


class AdhocPeer(SimplePeer):
    """A peer in a self-adaptive SON.

    Args:
        neighbours: Physically known peers at join time.
        max_discovery_depth: How far advertisement requests may travel
            when local knowledge leaves holes (Section 3.2's 2-depth,
            3-depth neighbourhoods).
        discovery_settle_time: Virtual-time budget allowed for one
            round of deeper discovery before the query is retried.
        dht: Optional schema DHT (Section 5 / footnote 2).  When set,
            unanswerable patterns are resolved with O(log N) overlay
            lookups instead of k-depth neighbourhood broadcasts.
    """

    def __init__(
        self,
        peer_id: str,
        base: Optional[PeerBase] = None,
        neighbours: Sequence[str] = (),
        max_discovery_depth: int = 3,
        discovery_settle_time: float = 20.0,
        dht=None,
        **kwargs,
    ):
        super().__init__(peer_id, base, **kwargs)
        self.neighbours: Tuple[str, ...] = tuple(neighbours)
        self.max_discovery_depth = max_discovery_depth
        self.discovery_settle_time = discovery_settle_time
        self.dht = dht
        #: deadline on one round of delegated forwards (None: wait
        #: forever, the seed behaviour); on expiry the root deepens
        #: discovery as if every branch had declined
        self.delegation_timeout: Optional[float] = None
        self._discovery_depth: Dict[str, int] = {}  # per query id
        self._dht_attempted: Set[str] = set()  # query ids
        self._delegations: Dict[str, int] = {}  # outstanding forwards
        self._delegation_rounds: Dict[str, int] = {}  # deadline guard
        self._seen_partials: Set[Tuple[str, str]] = set()  # (query, my role) guard
        self._handled_partials: Set[str] = set()  # forward-token dedup
        self._seen_delegated: Dict[str, Set[str]] = {}  # result-token dedup
        self._tokens = itertools.count(1)

    def _new_token(self) -> str:
        """A deployment-unique id for one logical message, so receivers
        can drop network-duplicated deliveries of it."""
        return f"{self.peer_id}:{next(self._tokens)}"

    # ------------------------------------------------------------------
    # joining: pull the neighbourhood's advertisements
    # ------------------------------------------------------------------
    def join(self, network: Network) -> None:
        super().join(network)
        # with cost-based planning on, fold this base's summary into
        # the deployment-shared statistics store (the ad-hoc pull
        # protocol has no advertisement push to ride on)
        self.own_stat_summary()

    def _advertisement_targets(self):
        return list(self.neighbours)

    def leave(self) -> None:
        if self.dht is not None:
            self.dht.unpublish(self.peer_id)
        super().leave()

    def discover_neighbourhood(self, depth: int = 1) -> None:
        """Pull active-schemas from the physical neighbours (and, with
        ``depth`` > 1, from their neighbours transitively)."""
        for neighbour in self.neighbours:
            self.send(neighbour, AdvertisementRequest(self.peer_id, depth))

    def handle_AdvertisementRequest(self, message: Message) -> None:
        request: AdvertisementRequest = message.payload
        own = self.own_advertisement()
        schemas = (own,) if own is not None else ()
        self.send(request.requester, AdvertisementReply(tuple(schemas), self.peer_id))
        if request.depth > 1:
            for neighbour in self.neighbours:
                if neighbour not in (request.requester, message.src):
                    self.send(
                        neighbour,
                        AdvertisementRequest(request.requester, request.depth - 1),
                    )

    # ------------------------------------------------------------------
    # interleaved routing and processing
    # ------------------------------------------------------------------
    def _handle_incomplete(
        self, pending: PendingQuery, plan: PlanNode, annotated: AnnotatedQueryPattern
    ) -> None:
        """Forward the partial plan to peers that can answer part of it."""
        candidates = self._forward_candidates(annotated, visited={self.peer_id})
        if not candidates:
            self._deepen_or_fail(pending)
            return
        self._delegations[pending.query_id] = len(candidates)
        round_no = self._delegation_rounds.get(pending.query_id, 0) + 1
        self._delegation_rounds[pending.query_id] = round_no
        pending.span.annotate(
            f"delegate round {round_no} to {len(candidates)} peers"
        )
        for candidate in candidates:
            self.send(
                candidate,
                PartialPlan(
                    query_id=pending.query_id,
                    plan=plan,
                    pattern=pending.pattern,
                    root_peer=self.peer_id,
                    reply_to=self.peer_id,
                    visited=(self.peer_id,),
                    token=self._new_token(),
                ),
                trace=pending.span.context(),
            )
        if self.delegation_timeout is not None:
            self._require_network().call_later(
                self.delegation_timeout,
                lambda: self._delegation_deadline(pending.query_id, round_no),
            )

    def _delegation_deadline(self, query_id: str, round_no: int) -> None:
        """One round of forwards went unanswered for too long (crashed
        delegates, lost results): stop waiting and deepen discovery as
        if every outstanding branch had declined.  Late answers are
        still accepted — first winner takes the query either way."""
        pending = self._pending.get(query_id)
        if pending is None:
            return  # answered in the meantime
        if self._delegation_rounds.get(query_id) != round_no:
            return  # a newer round of forwards superseded this deadline
        if query_id not in self._delegations:
            return  # every branch already reported back
        self._delegations.pop(query_id, None)
        if self.network is not None:
            self.network.metrics.record_retry()
        pending.span.annotate(f"delegation round {round_no} timed out")
        self._deepen_or_fail(pending)

    def _forward_candidates(
        self, annotated: AnnotatedQueryPattern, visited: Set[str]
    ) -> List[str]:
        """Peers known to answer at least a part of the query plan."""
        candidates = set(annotated.all_peers()) - visited
        return sorted(candidates)

    def _deepen_or_fail(self, pending: PendingQuery) -> None:
        """Widen the neighbourhood (2-depth, 3-depth, ...) and retry —
        or, with a schema DHT available, resolve the missing patterns
        with direct overlay lookups."""
        if self.dht is not None and pending.query_id not in self._dht_attempted:
            self._dht_attempted.add(pending.query_id)
            if self._dht_discover(pending):
                self._obtain_routing(pending)
                return
        depth = self._discovery_depth.get(pending.query_id, 1) + 1
        if depth > self.max_discovery_depth:
            # discovery exhausted: degrade to whatever this peer can
            # answer itself (partial results, when enabled) or error out
            self._give_up(pending, "no relevant peers within discovery depth")
            return
        self._discovery_depth[pending.query_id] = depth
        pending.span.annotate(f"deepen discovery to depth {depth}")
        self.discover_neighbourhood(depth)
        network = self._require_network()
        settle = self.discovery_settle_time * depth
        network.call_later(settle, lambda: self._retry_after_discovery(pending.query_id))

    def _dht_discover(self, pending: PendingQuery) -> bool:
        """Look the query's patterns up in the schema DHT; returns True
        when new advertisements were learned."""
        learned = False
        for pattern in pending.pattern:
            advertisements, _ = self.dht.advertisements_for_pattern(
                pattern, start=self.peer_id
            )
            for advertisement in advertisements:
                peer_id = advertisement.peer_id
                if peer_id != self.peer_id and peer_id not in self.known_advertisements:
                    self.remember_advertisement(advertisement)
                    learned = True
        return learned

    def _retry_after_discovery(self, query_id: str) -> None:
        pending = self._pending.get(query_id)
        if pending is None:
            return  # answered in the meantime
        self._obtain_routing(pending)

    # ------------------------------------------------------------------
    # receiving a partial plan: fill holes with local knowledge
    # ------------------------------------------------------------------
    def handle_PartialPlan(self, message: Message) -> None:
        partial: PartialPlan = message.payload
        # duplicate delivery of the same forward (network duplication):
        # the first copy already produced exactly one DelegatedResult,
        # so answering again would corrupt the root's outstanding-
        # branches accounting — drop silently.  A fresh forward round
        # carries a fresh token and still gets its decline below.
        if partial.token:
            if partial.token in self._handled_partials:
                return
            self._handled_partials.add(partial.token)
        # the interleaved routing-and-processing step at this delegate,
        # stitched under the sender's span (root or previous delegate)
        span = self._require_network().tracer.start_span(
            "delegate",
            peer=self.peer_id,
            parent=message.trace,
            query=partial.query_id,
            root=partial.root_peer,
        )
        guard = (partial.query_id, self.peer_id)
        if guard in self._seen_partials:
            span.finish("declined")
            self._decline(partial)
            return
        self._seen_partials.add(guard)
        # one local routing pass (cached when the cache is on) feeds
        # both the knowledge merge and the forward-candidate choice
        local = self._route_local(partial.pattern, trace=span.context())
        merged = self._merge_knowledge(partial, local)
        plan = self._compile(merged, trace=span.context())
        if plan.is_complete():
            self._execute_delegated(partial, plan, span)
            return
        # candidates must come from *this peer's own* knowledge — the
        # plan already names peers the root knew about, and Figure 7's
        # P3 fails precisely because it knows no new peer itself
        visited = set(partial.visited) | {self.peer_id}
        candidates = self._forward_candidates(local, visited)
        if not candidates:
            span.finish("declined")
            self._decline(partial)
            return
        # forward onward; account the extra branches at the root's sender
        for candidate in candidates:
            self.send(
                candidate,
                PartialPlan(
                    query_id=partial.query_id,
                    plan=plan,
                    pattern=partial.pattern,
                    root_peer=partial.root_peer,
                    reply_to=partial.reply_to,
                    visited=tuple(sorted(visited)),
                    token=self._new_token(),
                ),
                trace=span.context(),
            )
        span.set(forwarded=len(candidates))
        span.finish()
        # this peer neither completed nor declined: the forwards replace
        # its own obligation, so tell the root about the fan-out delta
        if len(candidates) > 1:
            self.send(
                partial.reply_to,
                DelegatedResult(
                    partial.query_id,
                    None,
                    self.peer_id,
                    error=f"forwarded:{len(candidates) - 1}",
                    token=self._new_token(),
                ),
            )

    def _merge_knowledge(
        self,
        partial: PartialPlan,
        local: Optional[AnnotatedQueryPattern] = None,
    ) -> AnnotatedQueryPattern:
        """Annotations from the incoming plan's scans plus this peer's
        own routing knowledge — the interleaving step."""
        if local is None:
            local = self._route_local(partial.pattern)
        from_plan = AnnotatedQueryPattern(partial.pattern)
        for node in partial.plan.walk():
            if not isinstance(node, Scan):
                continue
            for scan_pattern in node.patterns():
                try:
                    pattern = partial.pattern.pattern_by_label(scan_pattern.label)
                except KeyError:
                    continue
                from_plan.annotate(
                    pattern,
                    PeerAnnotation(node.peer_id, scan_pattern, exact=True),
                )
        return local.merge(from_plan)

    def _execute_delegated(
        self, partial: PartialPlan, plan: PlanNode, span=NULL_SPAN
    ) -> None:
        """This peer filled every hole: execute and ship raw results to
        the root ("the first peer that is able to fill all the holes...
        holds also the responsibility of executing it")."""
        from ..execution.engine import PlanExecutor

        network = self._require_network()

        def on_complete(table: Optional[BindingTable], failed: Optional[str]) -> None:
            if failed is not None:
                self.suspect_peer(failed)
                span.finish("failed")
                self.send(
                    partial.reply_to,
                    DelegatedResult(
                        partial.query_id,
                        None,
                        self.peer_id,
                        error=f"peer {failed} failed",
                        token=self._new_token(),
                    ),
                )
            else:
                assert table is not None
                # the root's dictionary differs from this peer's: raw
                # delegated bindings ship as terms
                table = decode_cells(table, self.dictionary)
                span.set(rows=len(table))
                span.finish()
                self.send(
                    partial.reply_to,
                    DelegatedResult(
                        partial.query_id, table, self.peer_id,
                        token=self._new_token(),
                    ),
                )

        executor = PlanExecutor(
            self,
            network,
            plan,
            query_id=partial.query_id,
            on_complete=on_complete,
            retry=self.channel_retry,
            trace=span.context(),
        )
        executor.start()

    def _decline(self, partial: PartialPlan) -> None:
        self.send(
            partial.reply_to,
            DelegatedResult(
                partial.query_id,
                None,
                self.peer_id,
                error="cannot complete plan",
                token=self._new_token(),
            ),
        )

    # ------------------------------------------------------------------
    # root side: collect delegation outcomes
    # ------------------------------------------------------------------
    def handle_DelegatedResult(self, message: Message) -> None:
        result: DelegatedResult = message.payload
        pending = self._pending.get(result.query_id)
        if pending is None:
            return  # already answered: first winner took it
        if result.token:
            # a network-duplicated outcome must count exactly once
            seen = self._seen_delegated.setdefault(result.query_id, set())
            if result.token in seen:
                return
            seen.add(result.token)
        if result.table is not None:
            self._reply_result(pending, encode_cells(result.table, self.dictionary))
            self._delegations.pop(result.query_id, None)
            self._seen_delegated.pop(result.query_id, None)
            return
        outstanding = self._delegations.get(result.query_id, 0)
        if result.error and result.error.startswith("forwarded:"):
            outstanding += int(result.error.split(":", 1)[1])
        outstanding -= 1
        self._delegations[result.query_id] = outstanding
        if outstanding <= 0:
            self._delegations.pop(result.query_id, None)
            self._deepen_or_fail(pending)


class AdhocSystem:
    """Builder/harness for an ad-hoc deployment.

    Args:
        use_dht: Maintain a schema DHT over the peers and let them
            resolve unanswerable patterns with overlay lookups instead
            of (only) k-depth neighbourhood broadcasts.
    """

    def __init__(
        self,
        schema: Schema,
        seed: int = 0,
        default_latency: float = 1.0,
        statistics: Optional[Statistics] = None,
        use_dht: bool = False,
        cache_enabled: bool = True,
        observability: bool = True,
        batch_size: int = 256,
        cost_based: bool = False,
        **peer_options,
    ):
        self.schema = schema
        self.network = Network(
            seed=seed, default_latency=default_latency, observability=observability
        )
        # cost-based planning shares one statistics store across the
        # deployment: every peer folds its own summary in at join time
        if statistics is None and cost_based:
            statistics = Statistics()
        self.statistics = statistics
        self.cache_enabled = cache_enabled
        self.batch_size = batch_size
        self.cost_based = cost_based
        self.peer_options = dict(peer_options)
        self.peer_options.setdefault("cache_enabled", cache_enabled)
        # deployment-wide shipping / planning mode (--batch-size / --cost-based)
        self.peer_options.setdefault("batch_size", batch_size)
        self.peer_options.setdefault("cost_based", cost_based)
        self.peers: Dict[str, AdhocPeer] = {}
        self.clients: Dict[str, ClientPeer] = {}
        self._client_counter = itertools.count(1)
        #: set by :meth:`enable_resilience`; later-added peers inherit it
        self.resilience: Optional[ResilienceConfig] = None
        #: set by :meth:`enable_admission` / :meth:`enable_fair_scheduling`;
        #: later-added peers inherit both
        self.admission: Optional[AdmissionControl] = None
        self.fair_quantum: Optional[float] = None
        self.dht = None
        if use_dht:
            from ..dht import ChordRing, SchemaDHT

            self.dht = SchemaDHT(ChordRing(), schema)

    # ------------------------------------------------------------------
    # concurrency (repro.workload_engine)
    # ------------------------------------------------------------------
    def enable_admission(
        self, control: Optional[AdmissionControl] = None
    ) -> AdmissionControl:
        """Bound what every peer's coordinator role accepts: park
        overflow queries, shed beyond the queue with a retry-after
        hint, and (when set) cancel deadline stragglers.  The ad-hoc
        architecture has no routing servers, so there is no RouteBusy
        tier here — delegation back-pressure comes from the same
        coordinator bounds at each forwarding peer."""
        control = control or AdmissionControl.default()
        self.admission = control
        for peer in self.peers.values():
            peer.admission = control
        return control

    def enable_fair_scheduling(self, quantum: float = 0.25) -> None:
        """Give every peer a fair per-query scheduler (see the hybrid
        twin): local work interleaves round-robin across queries."""
        self.fair_quantum = quantum
        for peer in self.peers.values():
            if peer.scheduler is None:
                peer.install_scheduler(FairScheduler(self.network, quantum))

    def serve(self, spec: WorkloadSpec, max_events: int = 2_000_000) -> WorkloadReport:
        """Drive a workload against this deployment (see the hybrid
        twin); returns the workload report."""
        return _serve_workload(self, spec, max_events=max_events)

    # ------------------------------------------------------------------
    # resilience
    # ------------------------------------------------------------------
    def enable_resilience(
        self, config: Optional[ResilienceConfig] = None
    ) -> ResilienceConfig:
        """Turn the resilience layer on deployment-wide.  The ad-hoc
        architecture has no routing servers to run a failure detector
        on; its suspicion signal comes from channel timeouts and the
        delegation deadline instead."""
        config = config or ResilienceConfig.default()
        self.resilience = config
        for peer in self.peers.values():
            self._apply_resilience_peer(peer)
        for client in self.clients.values():
            client.submit_retry = config.client_retry
        return config

    def _apply_resilience_peer(self, peer: "AdhocPeer") -> None:
        config = self.resilience
        peer.channel_retry = config.channel_retry
        peer.quarantine_enabled = config.quarantine_enabled
        peer.partial_results = config.partial_results
        peer.delegation_timeout = config.delegation_timeout
        peer.replan_budget = ReplanBudget(
            config.max_replans, config.replan_delay, config.replan_backoff
        )

    def add_peer(
        self,
        peer_id: str,
        graph: Graph,
        neighbours: Sequence[str] = (),
        schema: Optional[Schema] = None,
        views: Sequence = (),
    ) -> AdhocPeer:
        base = PeerBase(graph, schema or self.schema, views=views)
        peer = AdhocPeer(
            peer_id,
            base,
            neighbours=neighbours,
            statistics=self.statistics,
            dht=self.dht,
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
        if self.dht is not None:
            advertisement = peer.own_advertisement()
            if advertisement is not None:
                self.dht.publish(advertisement)
            else:
                self.dht.ring.join(peer_id)
        return peer

    def add_client(self, peer_id: Optional[str] = None) -> ClientPeer:
        peer_id = peer_id or f"client{next(self._client_counter)}"
        client = ClientPeer(peer_id)
        client.join(self.network)
        self.clients[peer_id] = client
        if self.resilience is not None:
            client.submit_retry = self.resilience.client_retry
        return client

    def discover_all(self, depth: int = 1) -> None:
        """Have every peer pull its neighbourhood's advertisements and
        settle the exchange (run to quiescence)."""
        for peer in self.peers.values():
            peer.discover_neighbourhood(depth)
        self.network.run()

    @classmethod
    def from_scenario(cls, scenario, **kwargs) -> "AdhocSystem":
        """Build Figure 7's deployment from an
        :class:`~repro.workloads.paper.AdhocScenario`."""
        system = cls(scenario.schema, **kwargs)
        for peer_id in scenario.peers:
            system.add_peer(
                peer_id, scenario.bases[peer_id], scenario.neighbours.get(peer_id, ())
            )
        system.discover_all()
        return system

    def run(self, max_events: int = 1_000_000) -> int:
        return self.network.run(max_events=max_events)

    def submit(self, via_peer: str, text: str, client: Optional[ClientPeer] = None,
               max_peers=None, limit=None, order_by=None, descending=False) -> str:
        """Submit a query through a peer; returns the query id.

        Call :meth:`run` afterwards to drive the event loop.  Accepts
        the same ``client`` and result-shaping keywords as
        :meth:`query` (the hybrid twin's signature, kept symmetric).
        """
        client = client or (
            next(iter(self.clients.values())) if self.clients else self.add_client()
        )
        return client.submit(
            via_peer, text, max_peers=max_peers, limit=limit,
            order_by=order_by, descending=descending,
        )

    def query(self, via_peer: str, text: str, max_peers=None, limit=None,
              order_by=None, descending=False,
              client: Optional[ClientPeer] = None):
        """Submit through a peer, run to quiescence, return the table.

        Args:
            via_peer: The peer the client connects through.
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
