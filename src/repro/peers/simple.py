"""Simple peers: storage, query coordination and execution.

A simple peer shares its base with the SON, answers subplans, and —
when a client submits a query to it — acts as the query's coordinator:
it obtains an annotated query pattern (how depends on the
architecture), generates and optimises the plan, deploys channels, and
assembles the final answer.  Run-time adaptation lives here too: when
a channel fails, the coordinator discards partial results (ubQL),
re-routes without the obsolete peers and re-executes.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import replace
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..cache.coalescer import QueryCoalescer
from ..cache.plan_cache import PlanCache
from ..cache.routing_cache import RoutingCache
from ..config import DEFAULT_CONFIG, PeerConfig
from ..core.algebra import PlanNode
from ..core.annotations import AnnotatedQueryPattern
from ..core.constraints import QueryConstraints, UNCONSTRAINED, apply_peer_bound
from ..core.cost import CostModel, StatSummary, Statistics, harvest_stat_summary
from ..core.optimizer import optimize
from ..core.planning import build_plan
from ..core.routing import route_query
from ..core.shipping import assign_sites
from ..errors import ParseError, SchemaError
from ..execution.engine import PlanExecutor
from ..execution.operators import finalize_encoded
from ..livedata.continuous import StandingQuery, table_delta
from ..livedata.maintenance import LiveMaintainer
from ..livedata.updates import (
    AdvertiseDelta,
    ContinuousUpdate,
    UpdateAck,
    apply_advertisement_delta,
)
from ..net.message import Message
from ..obs.tracer import NULL_SPAN, NULL_TRACER
from ..rdf.schema import Schema
from ..rdf.terms import URI
from ..resilience.detector import PeerQuarantine
from ..resilience.partial import Coverage, restrict_to_answerable
from ..rql.ast import RQLQuery
from ..rql.bindings import BindingTable
from ..rql.parser import parse_query
from ..rql.pattern import QueryPattern, extract_pattern
from ..rvl.active_schema import ActiveSchema
from .base import Peer, PeerBase
from .churn import AdvertisementTracker, Goodbye
from .protocol import (
    Advertise,
    AdvertisementReply,
    AdvertisementRequest,
    QueryResult,
    QueryShed,
    QuerySubmit,
)

#: phased policy: virtual-time window for the old phase's in-flight
#: results to land in the scan cache before the new phase starts
PHASE_SETTLE_TIME = 10.0
#: consecutive monitoring ticks without tuple flow before a channel is
#: declared stalled
STALL_CHECKS = 2
#: answered queries remembered per coordinator, so duplicate
#: QuerySubmits are served idempotently instead of re-coordinated
COMPLETED_QUERY_LIMIT = 128


class PendingQuery:
    """Coordinator-side state of one in-flight query."""

    def __init__(
        self,
        query_id: str,
        query: RQLQuery,
        pattern: QueryPattern,
        reply_to: str,
        constraints: Optional[QueryConstraints] = None,
    ):
        self.query_id = query_id
        self.query = query
        self.pattern = pattern
        self.reply_to = reply_to
        self.constraints = constraints or UNCONSTRAINED
        self.excluded: Set[str] = set()
        self.attempts = 0
        self.executor: Optional[PlanExecutor] = None
        self.annotated: Optional[AnnotatedQueryPattern] = None
        self.discarded_results = 0
        #: scan-result cache carried across phases (phased policy only)
        self.scan_cache: Dict = {}
        self.reused_rows = 0
        #: routing round-trips attempted (hybrid RouteRequest retries)
        self.routing_attempts = 0
        #: True while a RouteReply is awaited (stale/duplicate replies
        #: and timeouts check against this)
        self.awaiting_routing = False
        #: RouteBusy back-offs taken this routing round (bounded by the
        #: requester's shed budget before it gives up)
        self.routing_busy_retries = 0
        #: tracing (repro.obs): the coordinator-side span covering the
        #: whole coordination, and the currently open routing round
        self.span = NULL_SPAN
        self.routing_span = NULL_SPAN


class SimplePeer(Peer):
    """A peer with a local base that can coordinate queries.

    The base class routes from *local knowledge* (its own base plus
    advertisements it has received); the hybrid and ad-hoc subclasses
    override :meth:`_obtain_routing` / :meth:`_handle_incomplete` with
    their architecture's behaviour.

    Args:
        peer_id: Network address.
        base: Local description base.
        statistics: The statistics store plans are priced with (one
            shared store per deployment under cost-based planning).
        secondary_bases: Extra bases of a multi-SON peer.
        config: Every behaviour value — caching, batching, planning,
            adaptation, streaming, resilience, admission; see
            :class:`~repro.config.PeerConfig`.
    """

    def __init__(
        self,
        peer_id: str,
        base: Optional[PeerBase] = None,
        statistics: Optional[Statistics] = None,
        secondary_bases=(),
        config: PeerConfig = DEFAULT_CONFIG,
    ):
        super().__init__(peer_id, base, secondary_bases=secondary_bases, config=config)
        #: virtual time at which the most recent query produced its
        #: first rows (pipelined evaluation)
        self.last_first_output_at: Optional[float] = None
        #: channel id -> (tuples seen at last tick, consecutive stalls)
        self._stall_counts: Dict[str, tuple] = {}
        self.statistics = statistics or Statistics()
        self.known_advertisements: Dict[str, ActiveSchema] = {}
        self._pending: Dict[str, PendingQuery] = {}
        self._query_counter = itertools.count(1)
        self._tracker = AdvertisementTracker(base) if base is not None else None
        #: the repro.cache subsystem (None of each when disabled)
        cache_enabled = config.cache_enabled
        schemas = [b.schema for b in self.all_bases()]
        self.routing_cache = RoutingCache(schemas) if cache_enabled else None
        self.plan_cache = PlanCache() if cache_enabled else None
        self._coalescer = QueryCoalescer() if cache_enabled else None
        #: the own-advertisement set the cache's entries were routed
        #: with; silent base drift is detected against it per query
        self._cached_own_ads: Optional[tuple] = None
        self.quarantine = PeerQuarantine()
        #: True while this peer is re-entering the overlay after a
        #: crash/departure: the advertisements pushed by ``join`` carry
        #: the rejoin flag so holders rehabilitate instead of merely
        #: registering (repro.membership)
        self.rejoining = False
        #: answered queries remembered (bounded FIFO) so duplicate
        #: QuerySubmits are served idempotently
        self._completed: Dict[str, QueryResult] = {}
        #: admission control (repro.workload_engine): queries parked
        #: beyond ``config.admission``'s concurrency bound
        self._admission_queue: Deque[Tuple[QuerySubmit, object]] = deque()
        self._parked_ids: Set[str] = set()
        #: live data plane (repro.livedata): the incremental maintainer
        #: is created on the first UpdateBatch; standing queries push
        #: binding deltas per quiescent revision
        self._maintainer: Optional[LiveMaintainer] = None
        self._standing: Dict[str, StandingQuery] = {}
        self._result_hooks: Dict[str, Callable[[QueryResult], None]] = {}

    def join(self, network) -> None:
        super().join(network)
        if self.routing_cache is not None:
            self.routing_cache.bind_metrics(network.metrics)
            self.routing_cache.on_invalidate = lambda count: network.emit_event(
                "cache_invalidate", peer=self.peer_id, entries=count
            )
        if self.plan_cache is not None:
            self.plan_cache.bind_metrics(network.metrics)
        # liveness control events keep the routing cache honest: cached
        # annotations must never resurrect a peer known to be down
        network.add_liveness_listener(self._on_liveness)

    # ------------------------------------------------------------------
    # liveness / suspicion
    # ------------------------------------------------------------------
    def _on_liveness(self, peer_id: str, alive: bool) -> None:
        if peer_id == self.peer_id:
            return
        if alive:
            self.quarantine.restore(peer_id)
        elif self.routing_cache is not None:
            self.routing_cache.invalidate_peer(peer_id)

    def suspect_peer(self, peer_id: str) -> None:
        """An observation (timeout, missed heartbeats, bounced channel)
        says ``peer_id`` may be dead: invalidate its cached routing and,
        when quarantine is on, exclude it from future routing."""
        if peer_id == self.peer_id:
            return
        network = self._require_network()
        network.metrics.record_suspicion()
        if self.routing_cache is not None:
            self.routing_cache.invalidate_peer(peer_id)
        if self.config.resilience.quarantine_enabled:
            tripped = self.quarantine.record_failure(peer_id)
            if tripped:
                network.emit_event("quarantine", peer=self.peer_id, suspect=peer_id)
                if self.state_store is not None:
                    self.state_store.log_quarantine(peer_id)

    def restore_peer(self, peer_id: str) -> None:
        """The peer was heard from again: lift its quarantine and drop
        routing entries computed while it was excluded."""
        if self.quarantine.restore(peer_id) and self.routing_cache is not None:
            self.routing_cache.invalidate_peer(peer_id)

    def _rehabilitate(self, peer_id: str) -> None:
        """A rejoin-flagged advertisement announced the peer is back:
        lift its quarantine, drop routing entries computed while it was
        excluded, and let every in-flight query replan onto it — a
        recovery landing within the :class:`~repro.core.adaptivity.
        ReplanBudget` upgrades a would-be partial to a full answer."""
        if peer_id == self.peer_id:
            return
        if self.quarantine.restore(peer_id):
            self._require_network().emit_event(
                "rehabilitate", peer=self.peer_id, suspect=peer_id
            )
            if self.routing_cache is not None:
                self.routing_cache.invalidate_peer(peer_id)
            if self.state_store is not None:
                self.state_store.log_rehabilitate(peer_id)
        for pending in self._pending.values():
            pending.excluded.discard(peer_id)

    # ------------------------------------------------------------------
    # advertisements
    # ------------------------------------------------------------------
    def own_advertisement(self) -> Optional[ActiveSchema]:
        if self.base is None:
            return None
        if self._tracker is not None:
            self._tracker.mark_advertised()
        advertisement = self.base.active_schema(self.peer_id)
        return None if advertisement.is_empty() else advertisement

    def own_advertisements(self) -> List[ActiveSchema]:
        """One advertisement per non-empty base (multi-SON peers)."""
        out = []
        primary = self.own_advertisement()
        if primary is not None:
            out.append(primary)
        for base in self.secondary_bases:
            advertisement = base.active_schema(self.peer_id)
            if not advertisement.is_empty():
                out.append(advertisement)
        return out

    def remember_advertisement(self, advertisement: ActiveSchema) -> None:
        if advertisement.peer_id and advertisement.peer_id != self.peer_id:
            previous = self.known_advertisements.get(advertisement.peer_id)
            self.known_advertisements[advertisement.peer_id] = advertisement
            if self.routing_cache is not None:
                self.routing_cache.on_advertise(advertisement, previous)
            if (
                self.plan_cache is not None
                and previous is not None
                and previous != advertisement
            ):
                # the peer's footprint moved (live updates, view
                # redefinitions): cached plans naming it may embed
                # subqueries rewritten against the old advertisement,
                # and a racing stale annotation would still hit them
                self.plan_cache.invalidate_peer(advertisement.peer_id)
            if self.state_store is not None and previous != advertisement:
                self.state_store.log_advertise(advertisement)

    def handle_Advertise(self, message: Message) -> None:
        advertisement = message.payload.active_schema
        stats = message.payload.stats
        if stats is not None:
            # a cost-based sender shared its per-predicate statistics:
            # fold them so this coordinator prices plans with them
            self.statistics.fold_summary(stats)
        if message.payload.rejoin and advertisement.peer_id:
            self._rehabilitate(advertisement.peer_id)
        self.remember_advertisement(advertisement)

    def handle_AdvertisementRequest(self, message: Message) -> None:
        request: AdvertisementRequest = message.payload
        own = self.own_advertisement()
        schemas = (own,) if own is not None else ()
        self.send(request.requester, AdvertisementReply(tuple(schemas), self.peer_id))

    def handle_AdvertisementReply(self, message: Message) -> None:
        for advertisement in message.payload.schemas:
            self.remember_advertisement(advertisement)

    def _advertisement_targets(self) -> List[str]:
        """Who holds this peer's advertisement (architecture-specific:
        the home super-peer in hybrid SONs, the neighbours in ad-hoc)."""
        return []

    def own_stat_summary(self) -> Optional[StatSummary]:
        """This peer's :class:`~repro.core.cost.StatSummary`, harvested
        from its own base — attached to advertisements only when
        cost-based planning is on, so the default wire format stays
        seed-identical.  The summary is also folded locally, giving the
        coordinator exact cardinalities for its own base."""
        if not self.config.cost_based or self.base is None:
            return None
        summary = harvest_stat_summary(
            self.base.graph, self.base.schema, self.peer_id
        )
        self.statistics.fold_summary(summary)
        return summary

    def refresh_advertisement(self) -> bool:
        """Push a fresh advertisement when the base's intensional
        footprint changed (Section 2.2: extensional churn is free).
        Returns True when an advertisement was sent."""
        if self._tracker is None:
            return False
        advertisement = self._tracker.refresh(self.peer_id)
        if advertisement is None:
            return False
        for target in self._advertisement_targets():
            self.send(target, Advertise(advertisement, stats=self.own_stat_summary()))
        if self.state_store is not None:
            self.state_store.log_self_advertise(advertisement)
        return True

    def leave(self) -> None:
        """Depart gracefully: holders of this peer's advertisement
        forget it, then the peer goes dark (in-flight subplans bounce,
        triggering the roots' run-time adaptation)."""
        network = self._require_network()
        self.save_durable_snapshot()
        for target in self._advertisement_targets():
            self.send(target, Goodbye(self.peer_id))
        network.fail_peer(self.peer_id)

    def handle_Goodbye(self, message: Message) -> None:
        departed = message.payload.peer_id
        if self.known_advertisements.pop(departed, None) is not None:
            self._require_network().metrics.record_goodbye()
            if self.state_store is not None:
                self.state_store.log_goodbye(departed)
        if self.routing_cache is not None:
            self.routing_cache.on_goodbye(departed)
        if self.plan_cache is not None:
            self.plan_cache.invalidate_peer(departed)

    # ------------------------------------------------------------------
    # live data plane (repro.livedata)
    # ------------------------------------------------------------------
    def live_maintainer(self) -> Optional[LiveMaintainer]:
        """The incremental active-schema maintainer, created lazily on
        the first update batch (peers without a base have none)."""
        if self._maintainer is None and self.base is not None:
            self._maintainer = LiveMaintainer(self.base, self.peer_id)
        return self._maintainer

    def handle_UpdateBatch(self, message: Message) -> None:
        """Apply a live update batch to the base, patch the encoded
        twin, and — only when the intensional footprint moved — push an
        :class:`~repro.livedata.updates.AdvertiseDelta` to the holders
        (Section 2.2: extensional churn stays silent)."""
        batch = message.payload
        network = self._require_network()
        maintainer = self.live_maintainer()
        if maintainer is None:
            self.send(message.src, UpdateAck(self.peer_id, batch.revision, 0))
            return
        result = maintainer.apply(batch)
        network.emit_event(
            "update_batch",
            peer=self.peer_id,
            revision=batch.revision,
            applied=result.applied,
        )
        if self.config.live_full_refresh:
            if result.applied or result.views_changed:
                self._push_full_refresh()
        elif result.delta is not None:
            self._push_advertisement_delta(result.delta)
        self.send(
            message.src, UpdateAck(self.peer_id, batch.revision, result.applied)
        )

    def _push_full_refresh(self) -> None:
        """The ``config.live_full_refresh`` baseline: re-push every own
        advertisement wholesale (correct, but pays full-advertisement
        bytes for extensional churn the delta path ships nothing for)."""
        stats = self.own_stat_summary()
        for advertisement in self.own_advertisements():
            for target in self._advertisement_targets():
                self.send(target, Advertise(advertisement, stats=stats))
        if self._tracker is not None:
            self._tracker.mark_advertised()
        if self.routing_cache is not None:
            self.routing_cache.invalidate_peer(self.peer_id)
        if self.plan_cache is not None:
            self.plan_cache.invalidate_peer(self.peer_id)

    def _push_advertisement_delta(self, delta: AdvertiseDelta) -> None:
        """Ship only the flipped schema fragments to the advertisement
        holders, and drop this peer's own cached routing and plans (its
        annotations were computed under the old footprint)."""
        network = self._require_network()
        delta = replace(delta, stats=self.own_stat_summary())
        for target in self._advertisement_targets():
            self.send(target, delta)
        if self._tracker is not None:
            # the delta already told holders everything a full
            # refresh() would re-push: keep the tracker coherent
            self._tracker.mark_advertised()
        if self.routing_cache is not None:
            self.routing_cache.invalidate_peer(self.peer_id)
        if self.plan_cache is not None:
            self.plan_cache.invalidate_peer(self.peer_id)
        if self.state_store is not None and self._maintainer is not None:
            self.state_store.log_self_advertise(self._maintainer.current)
        network.emit_event(
            "advertise_delta",
            peer=self.peer_id,
            added=len(delta.added_paths) + len(delta.added_classes),
            removed=len(delta.removed_paths) + len(delta.removed_classes),
        )

    def handle_AdvertiseDelta(self, message: Message) -> None:
        """A known peer's advertisement changed incrementally:
        reconstruct the full advertisement from the held one plus the
        delta (ad-hoc neighbours hold advertisements directly)."""
        delta: AdvertiseDelta = message.payload
        if delta.peer_id == self.peer_id:
            return
        if delta.stats is not None:
            self.statistics.fold_summary(delta.stats)
        previous = self.known_advertisements.get(delta.peer_id)
        if previous is None or previous.schema_uri != delta.schema_uri:
            # no baseline to patch: pull the full advertisement instead
            self.send(message.src, AdvertisementRequest(self.peer_id, 1))
            return
        self.remember_advertisement(apply_advertisement_delta(previous, delta))

    # ------------------------------------------------------------------
    # continuous (standing) queries
    # ------------------------------------------------------------------
    def handle_ContinuousSubscribe(self, message: Message) -> None:
        """Register a standing query and evaluate its initial snapshot
        (pushed as revision 0's delta against the empty table)."""
        subscribe = message.payload
        standing = StandingQuery(
            subscribe.query_id, subscribe.text, subscribe.reply_to
        )
        self._standing[subscribe.query_id] = standing
        self._evaluate_standing(standing, revision=0)

    def handle_ContinuousCancel(self, message: Message) -> None:
        self._standing.pop(message.payload.query_id, None)

    def handle_RefreshStanding(self, message: Message) -> None:
        """A quiescent revision was announced: re-evaluate every
        standing query and push what changed."""
        revision = message.payload.revision
        for standing in list(self._standing.values()):
            if standing.evaluating:
                standing.pending_revisions.append(revision)
            else:
                self._evaluate_standing(standing, revision)

    def _evaluate_standing(self, standing: StandingQuery, revision: int) -> None:
        """Run one standing query through the ordinary coordination
        machinery; the result lands in :meth:`_finish_standing` via the
        result-hook seam in :meth:`_finish`."""
        standing.evaluating = True
        eval_id = (
            f"{standing.query_id}-r{revision}-e{next(self._query_counter)}"
        )
        submit = QuerySubmit(eval_id, standing.text, self.peer_id)
        self._result_hooks[eval_id] = (
            lambda result: self._finish_standing(standing, revision, result)
        )
        network = self._require_network()
        network.metrics.query_started(eval_id, network.now)
        self._begin_coordination(submit)

    def _finish_standing(
        self, standing: StandingQuery, revision: int, result: QueryResult
    ) -> None:
        standing.evaluating = False
        network = self._require_network()
        if result.error is not None and "no relevant peers" in result.error:
            # the community currently holds nothing the query touches —
            # for a *standing* query that is an empty answer, not a
            # failure: peers may advertise matching fragments at any
            # later revision and the subscription must survive to see
            # them (advertisements derive from base content, so an
            # unrouted query has no entailed matches either)
            columns = (
                standing.snapshot.columns if standing.snapshot is not None else ()
            )
            result = QueryResult(result.query_id, BindingTable(columns), None)
        if standing.query_id in self._standing:  # not cancelled meanwhile
            if result.error is not None:
                columns = (
                    standing.snapshot.columns
                    if standing.snapshot is not None
                    else ()
                )
                network.metrics.record_continuous_push()
                self.send(
                    standing.reply_to,
                    ContinuousUpdate(
                        standing.query_id,
                        BindingTable(columns),
                        BindingTable(columns),
                        revision,
                        error=result.error,
                    ),
                )
            else:
                added, removed = table_delta(standing.snapshot, result.table)
                if added or removed or standing.snapshot is None:
                    network.metrics.record_continuous_push()
                    self.send(
                        standing.reply_to,
                        ContinuousUpdate(
                            standing.query_id, added, removed, revision
                        ),
                    )
                standing.snapshot = result.table
                standing.revision = revision
        if standing.pending_revisions and standing.query_id in self._standing:
            self._evaluate_standing(standing, standing.pending_revisions.pop(0))

    def _routing_knowledge(self) -> List[ActiveSchema]:
        """Everything this peer can route with: its own advertisement
        plus the ones it has collected."""
        knowledge = list(self.known_advertisements.values())
        knowledge.extend(self.own_advertisements())
        return knowledge

    def _tracer(self):
        """The network's tracer (no-op before joining a network)."""
        return self.network.tracer if self.network is not None else NULL_TRACER

    def _route_local(self, pattern: QueryPattern, trace=None) -> AnnotatedQueryPattern:
        """Route ``pattern`` from local knowledge, through the routing
        cache when enabled.

        Remote advertisements invalidate eagerly (``handle_Advertise``
        / ``handle_Goodbye``), but this peer's *own* advertisement is
        recomputed from the base on every call — the base can mutate
        silently between queries — so drift against the footprint the
        cache was filled under is detected here, per query.

        A ``subsumption`` span covers the actual view-subsumption
        routing pass; routing-cache hits skip it entirely (that is the
        point of the cache).
        """
        if self.routing_cache is None:
            knowledge = self._routing_knowledge()
            span = self._tracer().start_span(
                "subsumption", peer=self.peer_id, parent=trace, candidates=len(knowledge)
            )
            annotated = route_query(pattern, knowledge, self.schema)
            span.set(peers=len(annotated.all_peers()))
            span.finish()
            return annotated
        own = tuple(self.own_advertisements())
        if self._cached_own_ads is not None and own != self._cached_own_ads:
            self.routing_cache.invalidate_peer(self.peer_id)
            if self.plan_cache is not None:
                self.plan_cache.invalidate_peer(self.peer_id)
            for advertisement in own:
                self.routing_cache.on_advertise(advertisement)
        self._cached_own_ads = own
        cached = self.routing_cache.get(pattern)
        if cached is not None:
            return cached
        knowledge = list(self.known_advertisements.values()) + list(own)
        span = self._tracer().start_span(
            "subsumption", peer=self.peer_id, parent=trace, candidates=len(knowledge)
        )
        annotated = route_query(pattern, knowledge, self.schema)
        span.set(peers=len(annotated.all_peers()))
        span.finish()
        self.routing_cache.put(pattern, annotated)
        return annotated

    # ------------------------------------------------------------------
    # query coordination
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Optional[Schema]:
        return self.base.schema if self.base is not None else None

    def handle_QuerySubmit(self, message: Message) -> None:
        submit: QuerySubmit = message.payload
        network = self._require_network()
        in_flight = self._pending.get(submit.query_id)
        if in_flight is not None:
            # duplicate delivery: the in-flight coordination answers
            in_flight.span.annotate("duplicate submit ignored")
            return
        if submit.query_id in self._parked_ids:
            return  # duplicate of a parked query: it will be coordinated
        done = self._completed.get(submit.query_id)
        if done is not None:
            # duplicate of an already-answered query (client resubmit
            # after a lost reply): resend the remembered result
            if submit.reply_to != self.peer_id:
                self.send(submit.reply_to, done)
            return
        admission = self.config.admission
        if admission is not None and len(self._pending) >= admission.max_concurrent:
            if len(self._admission_queue) >= admission.max_queued:
                # load shedding: refuse this query with a back-off hint
                # rather than degrade every admitted one
                network.metrics.record_shed_query()
                network.emit_event(
                    "shed", peer=self.peer_id, query_id=submit.query_id
                )
                if submit.reply_to != self.peer_id:
                    self.send(
                        submit.reply_to,
                        QueryShed(
                            submit.query_id, admission.retry_after, self.peer_id
                        ),
                    )
                return
            self._admission_queue.append((submit, message.trace))
            self._parked_ids.add(submit.query_id)
            network.metrics.record_queue_depth(len(self._admission_queue))
            # queue wait counts against the query's observed latency
            network.metrics.query_started(submit.query_id, network.now)
            return
        network.metrics.query_started(submit.query_id, network.now)
        self._begin_coordination(submit, message.trace)

    def _begin_coordination(self, submit: QuerySubmit, trace=None) -> None:
        """Start coordinating one admitted query (the body of
        :meth:`handle_QuerySubmit` once past dedup and admission)."""
        network = self._require_network()
        # the coordination span: child of the client's query span when
        # the submit carried a context, else the root of a fresh trace
        # named after the query id (deterministic across seeded runs)
        span = network.tracer.start_span(
            "coordinate",
            peer=self.peer_id,
            parent=trace,
            trace_id=submit.query_id,
            query=submit.query_id,
        )
        try:
            query = parse_query(submit.text)
            pattern = self._extract_against_any_schema(query)
        except (ParseError, SchemaError) as exc:
            span.set(error=str(exc))
            span.finish("error")
            network.metrics.query_finished(submit.query_id, network.now)
            failure = QueryResult(submit.query_id, None, str(exc))
            hook = self._result_hooks.pop(submit.query_id, None)
            if hook is not None:
                # internal consumers (standing-query re-evaluations)
                # take the failure through their hook, not a message
                hook(failure)
            else:
                self.send(submit.reply_to, failure)
            self._drain_admission_queue()
            return
        if self._coalescer is not None:
            # singleflight: identical queries in flight share the
            # leader's routing/planning pass; the key is the exact text
            # plus every result-shaping knob (constraints live outside
            # the query pattern, so the signature alone is not enough)
            key = (
                submit.text,
                submit.max_peers,
                submit.limit,
                submit.order_by,
                submit.descending,
            )
            leader = self._coalescer.admit(key, submit.query_id, submit)
            if leader is not None:
                network.metrics.record_coalesced_query()
                span.set(coalesced_behind=leader)
                span.finish()
                return  # parked behind the leader; answered in _finish
        constraints = QueryConstraints(
            max_peers_per_pattern=submit.max_peers,
            max_results=submit.limit,
            order_by=submit.order_by,
            descending=submit.descending,
        )
        pending = PendingQuery(
            submit.query_id, query, pattern, submit.reply_to, constraints
        )
        pending.span = span
        self._pending[submit.query_id] = pending
        admission = self.config.admission
        if admission is not None and admission.deadline is not None:
            network.call_later(
                admission.deadline,
                lambda deadline=admission.deadline: self._deadline_expired(
                    submit.query_id, deadline
                ),
            )
        self._obtain_routing(pending)

    def _deadline_expired(self, query_id: str, deadline: float) -> None:
        """The query's virtual-time budget ran out: cancel the straggler
        through the ubQL discard path (channels released, destinations
        told to stop) and answer with an explicit error — an admitted
        query always terminates, never silently."""
        pending = self._pending.get(query_id)
        if pending is None:
            return  # answered in time
        network = self._require_network()
        network.metrics.record_deadline_expiration()
        network.emit_event(
            "deadline_expired", peer=self.peer_id,
            query_id=query_id, deadline=deadline,
        )
        pending.span.annotate(f"deadline ({deadline:g}) expired: cancelling")
        if pending.executor is not None:
            pending.executor.abort()
        self._reply_error(pending, f"deadline exceeded ({deadline:g})")

    def _drain_admission_queue(self) -> None:
        """Promote parked queries into freed coordination slots."""
        admission = self.config.admission
        if admission is None:
            return
        while self._admission_queue and len(self._pending) < admission.max_concurrent:
            submit, trace = self._admission_queue.popleft()
            self._parked_ids.discard(submit.query_id)
            self._begin_coordination(submit, trace)

    def _extract_against_any_schema(self, query: RQLQuery) -> QueryPattern:
        """Resolve the query against the first of this peer's schemas
        that declares its vocabulary (multi-SON peers speak several)."""
        bases = self.all_bases()
        if not bases:
            raise SchemaError(f"peer {self.peer_id} has no schema to parse against")
        last_error: Optional[SchemaError] = None
        for base in bases:
            try:
                return extract_pattern(query, base.schema)
            except SchemaError as exc:
                last_error = exc
        assert last_error is not None
        raise last_error

    def _obtain_routing(self, pending: PendingQuery) -> None:
        """Acquire the annotated query pattern.  Base behaviour: route
        from local knowledge (subclasses ask super-peers or interleave)."""
        span = self._tracer().start_span(
            "routing", peer=self.peer_id, parent=pending.span.context(), mode="local"
        )
        pending.routing_span = span
        annotated = self._route_local(pending.pattern, trace=span.context())
        span.set(peers=len(annotated.all_peers()))
        span.finish()
        self._on_annotated(pending, annotated)

    def _on_annotated(self, pending: PendingQuery, annotated: AnnotatedQueryPattern) -> None:
        annotated = annotated.without_peers(self._excluded_for(pending))
        annotated = apply_peer_bound(annotated, pending.constraints, self.statistics)
        pending.annotated = annotated
        plan = self._compile(annotated, trace=pending.span.context())
        if plan.is_complete():
            self._execute_plan(pending, plan)
        else:
            self._handle_incomplete(pending, plan, annotated)

    def _compile(self, annotated: AnnotatedQueryPattern, trace=None) -> PlanNode:
        """Compile (and optimise) the plan for an annotated pattern.

        A ``plan.compile`` span covers the pass; each optimiser rewrite
        that changed the plan becomes an ``optimize.<rule>`` child span,
        and plan-cache hits are tagged ``cached``.  With cost-based
        planning on, an ``optimize.cost`` span records the chosen
        plan's estimated cost against the rule-based alternative's.
        """
        if self.config.cost_based and self.network is not None:
            # refresh link costs from observed channel behaviour before
            # pricing (rounded folding, so unchanged observations do
            # not churn the statistics version / plan cache)
            self.statistics.fold_link_observations(
                self.network.metrics.link_observations()
            )
        span = self._tracer().start_span("plan.compile", peer=self.peer_id, parent=trace)
        if self.plan_cache is not None:
            version = self.statistics.version
            plan = self.plan_cache.get(annotated, version)
            if plan is not None:
                span.set(cached=True)
                span.finish()
                return plan
        plan = build_plan(annotated)
        if self.config.optimize_plans:
            traced = optimize(
                plan,
                CostModel(self.statistics),
                cost_based=self.config.cost_based,
                coordinator=self.peer_id,
            )
            if span:  # skip minting rewrite spans on the no-op path
                for rule, step in traced.steps[1:]:
                    # the plan object itself; rendered only at export
                    self._tracer().start_span(
                        f"optimize.{rule}",
                        peer=self.peer_id,
                        parent=span.context(),
                        plan=step,
                    ).finish()
                if traced.cost_decision is not None:
                    self._tracer().start_span(
                        "optimize.cost",
                        peer=self.peer_id,
                        parent=span.context(),
                        chosen=traced.cost_decision["chosen"],
                        rejected=traced.cost_decision["rejected"],
                    ).finish()
            plan = traced.result
        if self.plan_cache is not None:
            self.plan_cache.put(annotated, plan, version)
        span.finish()
        return plan

    def _excluded_for(self, pending: PendingQuery) -> Set[str]:
        """Peers excluded from this query's routing: those observed to
        fail during it plus (when enabled) the quarantined ones."""
        excluded = set(pending.excluded)
        if self.config.resilience.quarantine_enabled:
            excluded |= self.quarantine.peers
        return excluded

    def _handle_incomplete(
        self, pending: PendingQuery, plan: PlanNode, annotated: AnnotatedQueryPattern
    ) -> None:
        """No peer is known for some path pattern.  Base behaviour:
        give up — an error, or a coverage-annotated partial answer when
        degradation is on (the ad-hoc subclass forwards partial plans
        instead)."""
        holes = ", ".join(h.render() for h in plan.holes())
        self._give_up(pending, f"no relevant peers for: {holes}")

    # ------------------------------------------------------------------
    # execution + adaptation
    # ------------------------------------------------------------------
    def _execute_plan(self, pending: PendingQuery, plan: PlanNode) -> None:
        network = self._require_network()
        config = self.config
        sites = None
        if config.use_shipping or config.cost_based:
            # cost-based planning also lets the model choose data/
            # query/hybrid shipping per subplan (Section 2.5)
            assignment = assign_sites(plan, self.peer_id, CostModel(self.statistics))
            sites = assignment.sites

        def on_complete(table: Optional[BindingTable], failed: Optional[str]) -> None:
            if pending.executor is not None:
                pending.reused_rows += pending.executor.reused_rows
                self.last_first_output_at = pending.executor.first_output_at
            if failed is not None:
                self._on_execution_failure(pending, failed)
            else:
                assert table is not None
                self._reply_result(pending, table)

        pipelined = config.pipelined_execution
        early_stop = None
        limit = pending.constraints.max_results
        if (
            config.topk_cancel
            and limit is not None
            and pending.constraints.order_by is None
        ):
            # any-k early termination: scans, joins, unions, filters
            # and projections are all monotone, so the first k distinct
            # finalised rows are stable under any completion order.
            # Sound only without ORDER BY (ranked top-k needs every
            # candidate), hence the gate.
            pipelined = True

            def early_stop(merged: BindingTable) -> bool:
                return len(self._finalize_answer(merged, pending)) >= limit

        pending.attempts += 1
        pending.executor = PlanExecutor(
            self,
            network,
            plan,
            sites=sites,
            query_id=pending.query_id,
            on_complete=on_complete,
            scan_cache=pending.scan_cache if config.failure_policy == "phased" else None,
            pipelined=pipelined,
            retry=config.resilience.channel_retry,
            trace=pending.span.context(),
            keep_variables=self._keep_variables(pending),
            early_stop=early_stop,
        )
        pending.executor.start()
        if config.monitor_channels and config.adaptive:
            self._schedule_monitor_tick(pending.query_id)

    # ------------------------------------------------------------------
    # run-time throughput monitoring (Section 2.5)
    # ------------------------------------------------------------------
    def _schedule_monitor_tick(self, query_id: str) -> None:
        network = self._require_network()
        network.call_later(
            self.config.monitor_interval, lambda: self._monitor_tick(query_id)
        )

    def _monitor_tick(self, query_id: str) -> None:
        """Check the query's open channels for stalled tuple flow.

        A channel that made no progress across :data:`STALL_CHECKS`
        consecutive ticks is declared failed; the usual adaptation path
        then replans without its destination ("the root node of each
        channel is responsible for identifying possible problems ...
        and for handling them accordingly").
        """
        pending = self._pending.get(query_id)
        if pending is None:
            return  # query answered: stop monitoring
        stalled_channel = None
        for channel_id, channel in self.channels.open_channels().items():
            if channel.query_id != query_id:
                continue
            if self._stall_counts.get(channel_id, (None, 0))[0] == channel.tuples_received:
                count = self._stall_counts[channel_id][1] + 1
            else:
                count = 1
            self._stall_counts[channel_id] = (channel.tuples_received, count)
            if count > STALL_CHECKS:
                stalled_channel = channel_id
        if stalled_channel is not None:
            self._stall_counts.pop(stalled_channel, None)
            pending.span.annotate(f"stalled channel {stalled_channel} declared failed")
            self.channels.on_failure(stalled_channel)
            return  # the failure path schedules no further ticks itself
        self._schedule_monitor_tick(query_id)

    def _on_execution_failure(self, pending: PendingQuery, failed_peer: str) -> None:
        """Run-time adaptation: exclude the obsolete peer, discard
        partial results, re-route and re-execute (Section 2.5)."""
        pending.excluded.add(failed_peer)
        pending.discarded_results += 1
        pending.span.annotate(
            f"replan: peer {failed_peer} failed (attempt {pending.attempts})"
        )
        self._require_network().emit_event(
            "replan", peer=self.peer_id, query_id=pending.query_id,
            failed_peer=failed_peer, attempt=pending.attempts,
        )
        self.suspect_peer(failed_peer)
        if pending.executor is not None:
            # ubQL: discard on-going computation; phased: salvage the
            # old phase's in-flight scan results into the cache
            pending.executor.abort()
        budget = self.config.replan_budget
        if not self.config.adaptive or budget.exhausted(pending.attempts):
            self._give_up(pending, f"peer {failed_peer} failed")
            return
        if self.config.failure_policy == "phased":
            # phase boundary: give the previous phase's completed
            # computations time to land before the cleanup/retry phase
            network = self._require_network()
            network.call_later(
                PHASE_SETTLE_TIME,
                lambda: self._retry_if_pending(pending.query_id),
            )
            return
        delay = budget.delay(pending.attempts)
        if delay > 0:
            # back off before the next round: a failing region gets
            # breathing room instead of a tight replan storm
            network = self._require_network()
            network.call_later(delay, lambda: self._retry_if_pending(pending.query_id))
        else:
            self._obtain_routing(pending)

    def _retry_if_pending(self, query_id: str) -> None:
        pending = self._pending.get(query_id)
        if pending is not None:
            self._obtain_routing(pending)

    # ------------------------------------------------------------------
    # statistics feedback (Section 2.5: per-channel stats packets)
    # ------------------------------------------------------------------
    def handle_StatsPacket(self, message: Message) -> None:
        """Fold a destination's reported cardinalities into the local
        statistics store, keyed by the sender — they describe its base,
        whatever became of the channel they were measured on — so the
        optimiser of subsequent queries benefits."""
        for prop_value, rows in message.payload.cardinalities.items():
            self.statistics.set_cardinality(message.src, URI(prop_value), rows)

    # ------------------------------------------------------------------
    # graceful degradation
    # ------------------------------------------------------------------
    def _give_up(self, pending: PendingQuery, reason: str) -> None:
        """The adaptation loop cannot repair the query.  With
        ``config.resilience.partial_results`` on, restrict the query to its still-
        answerable path patterns and return that sub-answer annotated
        with coverage metadata; otherwise report the error."""
        if pending.query_id not in self._pending:
            return
        if not self.config.resilience.partial_results or pending.annotated is None:
            self._reply_error(pending, reason)
            return
        excluded = self._excluded_for(pending)
        available = pending.annotated.without_peers(excluded)
        restricted = restrict_to_answerable(available)
        if restricted is None:
            self._reply_error(pending, reason)
            return
        pending.span.annotate(f"degrade to partial answer: {reason}")
        coverage = Coverage(
            answered=tuple(p.label for p in restricted.query_pattern),
            unanswered=tuple(p.label for p in available.unannotated_patterns()),
            excluded_peers=tuple(sorted(excluded)),
            attempts=pending.attempts,
        )
        plan = self._compile(restricted, trace=pending.span.context())
        if not plan.is_complete():
            self._reply_error(pending, reason)
            return

        def on_complete(table: Optional[BindingTable], failed: Optional[str]) -> None:
            if failed is not None:
                # the degraded plan failed too: shrink further (the
                # annotation set loses at least one peer per round, so
                # this recursion is bounded)
                pending.excluded.add(failed)
                self.suspect_peer(failed)
                self._give_up(pending, reason)
            else:
                assert table is not None
                self._reply_partial(pending, table, coverage)

        pending.annotated = restricted
        pending.attempts += 1
        pending.executor = PlanExecutor(
            self,
            self._require_network(),
            plan,
            query_id=pending.query_id,
            on_complete=on_complete,
            retry=self.config.resilience.channel_retry,
            trace=pending.span.context(),
            keep_variables=self._keep_variables(pending),
        )
        pending.executor.start()

    def _keep_variables(self, pending: PendingQuery) -> set:
        """The variables this coordinator's finalisation still needs —
        projections plus WHERE-condition operands; the executor prunes
        every other column as soon as no later join references it."""
        keep = set(pending.query.effective_projections())
        for condition in pending.query.conditions:
            keep.add(condition.variable)
            if condition.value_is_variable:
                keep.add(str(condition.value))
        return keep

    def _reply_partial(
        self, pending: PendingQuery, table: BindingTable, coverage: Coverage
    ) -> None:
        if pending.query_id not in self._pending:
            return
        network = self._require_network()
        network.metrics.record_partial_result()
        final = self._finalize_answer(table, pending)
        final = pending.constraints.apply_result_bounds(final)
        self._finish(pending, QueryResult(pending.query_id, final, coverage=coverage))

    # ------------------------------------------------------------------
    # replies
    # ------------------------------------------------------------------
    def _reply_result(self, pending: PendingQuery, table: BindingTable) -> None:
        if pending.query_id not in self._pending:
            return  # already answered (e.g. first-wins in ad-hoc mode)
        final = self._finalize_answer(table, pending)
        final = pending.constraints.apply_result_bounds(final)
        self._finish(pending, QueryResult(pending.query_id, final))

    def _finalize_answer(
        self, table: BindingTable, pending: PendingQuery
    ) -> BindingTable:
        """Filter/project/de-duplicate a gathered id table into the
        answer, decoding only the final small table into terms."""
        return finalize_encoded(
            table,
            self.dictionary,
            pending.query.effective_projections(),
            pending.query.conditions,
        )

    def _reply_error(self, pending: PendingQuery, reason: str) -> None:
        if pending.query_id not in self._pending:
            return
        self._finish(pending, QueryResult(pending.query_id, None, reason))

    def _finish(self, pending: PendingQuery, result: QueryResult) -> None:
        del self._pending[pending.query_id]
        self._remember_completed(result)
        network = self._require_network()
        network.metrics.query_finished(pending.query_id, network.now)
        # idempotent: closes a routing round still open when the query
        # is abandoned mid-routing (hybrid timeout give-up)
        pending.routing_span.finish("abandoned")
        pending.span.set(attempts=pending.attempts)
        if result.error:
            pending.span.finish("error")
        elif result.coverage is not None:
            pending.span.finish("partial")
        else:
            pending.span.finish()
        if pending.reply_to != self.peer_id:
            # locally submitted queries (tests drive peers directly)
            # get no reply message
            self.send(pending.reply_to, result)
        # internal consumers (standing-query re-evaluations) get the
        # result through their hook instead of a reply message
        hook = self._result_hooks.pop(pending.query_id, None)
        if hook is not None:
            hook(result)
        if self._coalescer is not None:
            for follower in self._coalescer.complete(pending.query_id):
                network.metrics.query_finished(follower.query_id, network.now)
                shared = QueryResult(
                    follower.query_id, result.table, result.error, result.coverage
                )
                self._remember_completed(shared)
                if follower.reply_to != self.peer_id:
                    self.send(follower.reply_to, shared)
                follower_hook = self._result_hooks.pop(follower.query_id, None)
                if follower_hook is not None:
                    follower_hook(shared)
        # the finished coordination freed a slot: admit parked queries
        self._drain_admission_queue()

    def _remember_completed(self, result: QueryResult) -> None:
        """Remember an answered query (bounded FIFO) so duplicate
        submissions are replied to idempotently."""
        self._completed[result.query_id] = result
        while len(self._completed) > COMPLETED_QUERY_LIMIT:
            self._completed.pop(next(iter(self._completed)))

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def next_query_id(self) -> str:
        return f"{self.peer_id}-q{next(self._query_counter)}"
