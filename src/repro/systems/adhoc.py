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

from ..config import DEFAULT_CONFIG, PeerConfig
from ..core.annotations import AnnotatedQueryPattern, PeerAnnotation
from ..core.algebra import PlanNode, Scan
from ..core.cost import Statistics
from ..execution.encoded import EncodedTable
from ..net.message import Message
from ..net.simulator import Network
from ..obs.tracer import NULL_SPAN
from ..peers.base import PeerBase
from ..peers.protocol import (
    AdvertisementRequest,
    DelegatedResult,
    PartialPlan,
)
from ..peers.coordinator import PendingQuery
from ..peers.simple import SimplePeer
from ..rdf.graph import Graph
from ..rdf.schema import Schema
from .deployment import Deployment

#: virtual-time budget allowed for one round of deeper discovery before
#: the query is retried (scaled by the depth reached)
DISCOVERY_SETTLE_TIME = 20.0


class AdhocPeer(SimplePeer):
    """A peer in a self-adaptive SON.

    Args:
        neighbours: Physically known peers at join time.
        dht: Optional schema DHT (Section 5 / footnote 2).  When set,
            unanswerable patterns are resolved with O(log N) overlay
            lookups instead of k-depth neighbourhood broadcasts.
    """

    def __init__(
        self,
        peer_id: str,
        base: Optional[PeerBase] = None,
        neighbours: Sequence[str] = (),
        dht=None,
        statistics: Optional[Statistics] = None,
        config: PeerConfig = DEFAULT_CONFIG,
    ):
        super().__init__(peer_id, base, statistics, config=config)
        self.neighbours: Tuple[str, ...] = tuple(neighbours)
        self.dht = dht
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
        super().handle_AdvertisementRequest(message)
        request: AdvertisementRequest = message.payload
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
        # deadline on this round of forwards (none: wait forever, the
        # seed behaviour); on expiry the root deepens discovery as if
        # every branch had declined
        delegation_timeout = self.config.resilience.delegation_timeout
        if delegation_timeout is not None:
            self._require_network().call_later(
                delegation_timeout,
                lambda: self._delegation_deadline(pending.query_id, round_no),
            )

    def _delegation_deadline(self, query_id: str, round_no: int) -> None:
        """One round of forwards went unanswered for too long (crashed
        delegates, lost results): stop waiting and deepen discovery as
        if every outstanding branch had declined.  Late answers are
        still accepted — first winner takes the query either way."""
        pending = self.coordinator.get(query_id)
        if pending is None:
            return  # answered in the meantime
        if self._delegation_rounds.get(query_id) != round_no:
            return  # a newer round of forwards superseded this deadline
        if query_id not in self._delegations:
            return  # every branch already reported back
        self._delegations.pop(query_id, None)
        if self.network is not None:
            self.network.metrics.count("retries")
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
                self.coordinator.route(pending)
                return
        depth = self._discovery_depth.get(pending.query_id, 1) + 1
        if depth > self.config.max_discovery_depth:
            # discovery exhausted: degrade to whatever this peer can
            # answer itself (partial results, when enabled) or error out
            self.coordinator.give_up(
                pending, "no relevant peers within discovery depth"
            )
            return
        self._discovery_depth[pending.query_id] = depth
        pending.span.annotate(f"deepen discovery to depth {depth}")
        self.discover_neighbourhood(depth)
        network = self._require_network()
        settle = DISCOVERY_SETTLE_TIME * depth
        network.call_later(
            settle, lambda: self.coordinator.retry_routing(pending.query_id)
        )

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
                if peer_id != self.peer_id and not self.sons.sons_of(peer_id):
                    self.remember_advertisement(advertisement)
                    learned = True
        return learned

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
        span = self._require_network().tracer.stage(
            "delegate",
            self.peer_id,
            message.trace,
            query=partial.query_id,
            root=partial.root_peer,
        )
        guard = (partial.query_id, self.peer_id)
        if guard in self._seen_partials:
            span.finish("declined")
            self._report(partial, error="cannot complete plan")
            return
        self._seen_partials.add(guard)
        # one local routing pass (cached when the cache is on) feeds
        # both the knowledge merge and the forward-candidate choice
        local = self.coordinator.route_local(partial.pattern, trace=span.context())
        merged = self._merge_knowledge(partial, local)
        plan = self.coordinator.plan_for(merged, trace=span.context())
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
            self._report(partial, error="cannot complete plan")
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
            self._report(partial, error=f"forwarded:{len(candidates) - 1}")

    def _merge_knowledge(
        self,
        partial: PartialPlan,
        local: Optional[AnnotatedQueryPattern] = None,
    ) -> AnnotatedQueryPattern:
        """Annotations from the incoming plan's scans plus this peer's
        own routing knowledge — the interleaving step."""
        if local is None:
            local = self.coordinator.route_local(partial.pattern)
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

        def on_complete(tables, failed: Optional[str]) -> None:
            if failed is not None:
                self.sons.suspect(failed)
                span.finish("failed")
                self._report(partial, error=f"peer {failed} failed")
            else:
                (table,) = tables
                span.set(rows=len(table))
                span.finish()
                self._report(
                    partial, EncodedTable.of_batch(table, self.dictionary.decode_many)
                )

        self.plan_executor(
            (plan,), on_complete, query_id=partial.query_id, trace=span.context(),
            schema=partial.pattern.schema,
        ).start()

    def _report(self, partial: PartialPlan, table=None, error=None) -> None:
        """Tell the root how this branch of its delegation ended."""
        self.send(
            partial.reply_to,
            DelegatedResult(
                partial.query_id, table, self.peer_id, error, self._new_token()
            ),
        )

    # ------------------------------------------------------------------
    # root side: collect delegation outcomes
    # ------------------------------------------------------------------
    def handle_DelegatedResult(self, message: Message) -> None:
        result: DelegatedResult = message.payload
        pending = self.coordinator.get(result.query_id)
        if pending is None:
            return  # already answered: first winner took it
        if result.token:
            # a network-duplicated outcome must count exactly once
            seen = self._seen_delegated.setdefault(result.query_id, set())
            if result.token in seen:
                return
            seen.add(result.token)
        if result.table is not None:
            self.coordinator.finalize(pending, result.table.intern(self.dictionary))
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


class AdhocSystem(Deployment):
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
        config: PeerConfig = DEFAULT_CONFIG,
        observability: bool = True,
    ):
        super().__init__(
            schema,
            seed=seed,
            default_latency=default_latency,
            statistics=statistics,
            config=config,
            observability=observability,
        )
        self.dht = None
        if use_dht:
            from ..dht import ChordRing, SchemaDHT

            self.dht = SchemaDHT(ChordRing(), schema)

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
            config=self.config,
        )
        self._admit_peer(peer)
        if self.dht is not None:
            advertisement = peer.own_advertisement()
            if advertisement is not None:
                self.dht.publish(advertisement)
            else:
                self.dht.ring.join(peer_id)
        return peer

    def discover_all(self, depth: int = 1) -> None:
        """Have every peer pull its neighbourhood's advertisements and
        settle the exchange (run to quiescence)."""
        for peer in self.peers.values():
            peer.discover_neighbourhood(depth)
        self.network.run()

    @classmethod
    def from_scenario(
        cls,
        scenario,
        seed: int = 0,
        config: PeerConfig = DEFAULT_CONFIG,
        observability: bool = True,
    ) -> "AdhocSystem":
        """Build Figure 7's deployment from an
        :class:`~repro.workloads.paper.AdhocScenario`."""
        system = cls(
            scenario.schema, seed=seed, config=config, observability=observability
        )
        for peer_id in scenario.peers:
            system.add_peer(
                peer_id, scenario.bases[peer_id], scenario.neighbours.get(peer_id, ())
            )
        system.discover_all()
        return system
