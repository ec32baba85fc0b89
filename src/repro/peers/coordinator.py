"""Per-query coordination: one pipeline with named stages.

A simple peer's :class:`QueryCoordinator` takes each submitted query
through five stages, one method each, each the owner of its spans:

* ``parse`` — RQL text → query + pattern, coalescing; opens ``coordinate``
* ``route`` — obtain the annotated pattern, the architecture's way
  (``peer._obtain_routing``); ``routing``, and ``subsumption`` when
  routed from local knowledge
* ``compile`` — exclusions, peer bound, plan generation + optimisation
  (``plan.compile``, ``optimize.*``); a plan with holes goes to the
  architecture (``peer._handle_incomplete``)
* ``execute`` — placement, one executor per attempt (its ``execute`` and
  ``channel`` spans), channel monitoring and run-time adaptation:
  re-route, or degrade to the answerable sub-pattern
* ``finalize`` — the single exit: shape the answer, close ``coordinate``,
  remember it, answer, serve coalesced followers, admit a parked query

:meth:`QueryCoordinator.submit` (duplicate suppression, concurrency
bound, load shedding) sits in front.  The coordinator owns all
per-query state; the peer keeps what outlives a query (advertisements,
caches, statistics, quarantine).
"""

from __future__ import annotations

import weakref
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, Optional, Set, Tuple

from ..cache.coalescer import QueryCoalescer
from ..core.algebra import PlanNode
from ..core.annotations import AnnotatedQueryPattern
from ..core.constraints import QueryConstraints, apply_peer_bound
from ..core.cost import CostModel
from ..core.optimizer import optimize
from ..core.planning import build_plan
from ..core.shipping import assign_sites
from ..errors import ParseError, SchemaError
from ..execution.batch import BindingBatch
from ..execution.encoded import EncodedTable
from ..execution.operators import finalize_encoded, referenced_columns
from ..obs.tracer import NULL_SPAN
from ..resilience.partial import Coverage, restrict_to_answerable
from ..rql.ast import RQLQuery
from ..rql.parser import parse_query
from ..rql.pattern import QueryPattern, extract_pattern
from .protocol import QueryResult, QueryShed, QuerySubmit

#: phased policy: virtual-time window for the old phase's in-flight
#: results to land in the scan cache before the new phase starts
PHASE_SETTLE_TIME = 10.0
#: consecutive monitoring ticks without tuple flow before a channel is
#: declared stalled
STALL_CHECKS = 2
#: answered queries of resubmitting clients remembered per coordinator,
#: so their duplicate QuerySubmits are served instead of re-coordinated
COMPLETED_QUERY_LIMIT = 128

#: Continuation taking a finished query's result instead of a message.
ResultContinuation = Callable[[QueryResult], None]


def shape(query: RQLQuery, table: BindingBatch, dictionary) -> EncodedTable:
    """Filter/project/de-duplicate a gathered id table into the answer
    to ``query``, packed for the wire."""
    return finalize_encoded(
        table, dictionary, query.effective_projections(), query.conditions
    )


class PendingQuery:
    """Coordinator-side state of one in-flight query; everything here
    dies with the query."""

    def __init__(
        self,
        submit: QuerySubmit,
        span=NULL_SPAN,
        on_result: Optional[ResultContinuation] = None,
    ):
        self.query_id = submit.query_id
        self.reply_to = submit.reply_to
        #: only a resubmitting client's answer is remembered
        self.resubmits = submit.resubmits
        #: takes the result instead of a reply message (standing-query
        #: re-evaluations)
        self.on_result = on_result
        self.constraints = QueryConstraints(
            max_peers_per_pattern=submit.max_peers,
            max_results=submit.limit,
            order_by=submit.order_by,
            descending=submit.descending,
        )
        #: filled by the parse stage
        self.query: Optional[RQLQuery] = None
        self.pattern: Optional[QueryPattern] = None
        self.excluded: Set[str] = set()
        self.attempts = 0
        self.executor = None
        self.annotated: Optional[AnnotatedQueryPattern] = None
        self.finished = False
        #: scan-result cache carried across phases (phased policy only)
        self.scan_cache: Dict = {}
        #: monitored channel id -> (tuples seen at the last tick,
        #: consecutive ticks without flow)
        self.stalls: Dict[str, Tuple[int, int]] = {}
        #: hybrid routing rounds: RouteRequests sent, whether a
        #: RouteReply is awaited (stale/duplicate replies and timeouts
        #: check against it), RouteBusy back-offs taken this round
        self.routing_attempts = 0
        self.awaiting_routing = False
        self.routing_busy_retries = 0
        #: tracing (repro.obs): the span covering the whole
        #: coordination, and the currently open routing round
        self.span = span
        self.routing_span = NULL_SPAN

    def needed(self) -> frozenset:
        """The variables finalisation still needs — projections plus
        WHERE-condition operands; execution prunes every other column
        as soon as no later join references it."""
        keep = set(self.query.effective_projections())
        for condition in self.query.conditions:
            keep |= referenced_columns(condition)
        return frozenset(keep)


class QueryCoordinator:
    """The query-coordination pipeline of one simple peer.

    Args:
        peer: The hosting :class:`~repro.peers.simple.SimplePeer`, held
            weakly (the peer owns its coordinator); its
            ``_obtain_routing`` / ``_handle_incomplete`` are the two
            points where the hybrid and ad-hoc architectures differ.
    """

    def __init__(self, peer):
        self.peer = weakref.proxy(peer)
        self._pending: Dict[str, PendingQuery] = {}
        #: answered queries of resubmitting clients remembered (bounded
        #: FIFO) so their duplicate QuerySubmits are served idempotently
        self._completed: Dict[str, QueryResult] = {}
        #: admission control (repro.config.AdmissionControl): queries parked
        #: beyond ``config.admission``'s concurrency bound
        self._admission_queue: Deque[Tuple[QuerySubmit, object]] = deque()
        self._parked_ids: Set[str] = set()
        self._coalescer = QueryCoalescer() if peer.config.cache_enabled else None

    # ------------------------------------------------------------------
    # per-query state, for the peer and its architecture subclasses
    # ------------------------------------------------------------------
    def get(self, query_id: str) -> Optional[PendingQuery]:
        """The in-flight query ``query_id``, or None once answered."""
        return self._pending.get(query_id)

    def in_flight(self) -> int:
        return len(self._pending)

    def queued(self) -> int:
        return len(self._admission_queue)

    def remembered(self) -> int:
        return len(self._completed)

    def readmit(self, peer_id: str) -> None:
        """``peer_id`` is back: let every in-flight query replan onto it."""
        for pending in self._pending.values():
            pending.excluded.discard(peer_id)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, submit: QuerySubmit, trace=None) -> None:
        peer = self.peer
        network = peer._require_network()
        running = self._pending.get(submit.query_id)
        if running is not None:
            # duplicate delivery: the in-flight coordination answers
            running.span.annotate("duplicate submit ignored")
            return
        if submit.query_id in self._parked_ids:
            return  # duplicate of a parked query: it will be coordinated
        done = self._completed.get(submit.query_id)
        if done is not None:
            # duplicate of an already-answered query (client resubmit
            # after a lost reply): resend the remembered result
            self._answer(done, submit.reply_to)
            return
        admission = peer.config.admission
        parked = admission is not None and self.in_flight() >= admission.max_concurrent
        if parked and len(self._admission_queue) >= admission.max_queued:
            # load shedding: refuse this query with a back-off hint
            # rather than degrade every admitted one
            network.metrics.count("queries_shed")
            network.emit_event("shed", peer=peer.peer_id, query_id=submit.query_id)
            self._answer(
                QueryShed(submit.query_id, admission.retry_after, peer.peer_id),
                submit.reply_to,
            )
            return
        if parked:
            self._admission_queue.append((submit, trace))
            self._parked_ids.add(submit.query_id)
            network.metrics.record_queue_depth(len(self._admission_queue))
        # (queue wait counts against the query's observed latency)
        network.metrics.query_started(submit.query_id, network.now)
        if not parked:
            self.parse(submit, trace)

    def _drain_admission_queue(self) -> None:
        """Promote parked queries into freed coordination slots."""
        admission = self.peer.config.admission
        if admission is None:
            return
        while self._admission_queue and len(self._pending) < admission.max_concurrent:
            submit, trace = self._admission_queue.popleft()
            self._parked_ids.discard(submit.query_id)
            self.parse(submit, trace)

    # ------------------------------------------------------------------
    # stage 1: parse
    # ------------------------------------------------------------------
    def parse(
        self,
        submit: QuerySubmit,
        trace=None,
        on_result: Optional[ResultContinuation] = None,
    ) -> None:
        """Start coordinating one admitted query."""
        peer = self.peer
        network = peer._require_network()
        # the coordination span: child of the client's query span when
        # the submit carried a context, else — the query is rooted
        # here — the root of the trace named after the query id if it
        # is sampled, and a stage timer if not
        span = network.tracer.root(
            "coordinate", peer.peer_id, submit.query_id, parent=trace,
            query=submit.query_id,
        )
        pending = PendingQuery(submit, span, on_result)
        try:
            pending.query = parse_query(submit.text)
            pending.pattern = self.extract_pattern(pending.query)
        except (ParseError, SchemaError) as exc:
            span.set(error=str(exc))
            self.finalize(pending, error=str(exc))
            return
        if self._coalescer is not None:
            # singleflight: identical queries in flight share the
            # leader's routing/planning pass; the key is the exact text
            # plus every result-shaping knob (constraints live outside
            # the query pattern, so the pattern alone is not enough)
            key = (
                submit.text,
                submit.max_peers,
                submit.limit,
                submit.order_by,
                submit.descending,
            )
            leader = self._coalescer.admit(key, submit.query_id, pending)
            if leader is not None:
                network.metrics.count("coalesced_queries")
                span.set(coalesced_behind=leader)
                span.finish()
                return  # parked behind the leader; answered in finalize
        self._pending[submit.query_id] = pending
        admission = peer.config.admission
        if admission is not None and admission.deadline is not None:
            network.call_later(
                admission.deadline,
                lambda: self._deadline_expired(submit.query_id, admission.deadline),
            )
        self.route(pending)

    def extract_pattern(self, query: RQLQuery) -> QueryPattern:
        """Resolve the query against the first of the peer's schemas
        that declares its vocabulary (multi-SON peers speak several)."""
        error = SchemaError(f"peer {self.peer.peer_id} has no schema to parse against")
        for base in self.peer.all_bases():
            try:
                return extract_pattern(query, base.schema)
            except SchemaError as exc:
                error = exc
        raise error

    def _deadline_expired(self, query_id: str, deadline: float) -> None:
        """The query's virtual-time budget ran out: cancel the straggler
        through the ubQL discard path (channels released, destinations
        told to stop) and answer with an explicit error — an admitted
        query always terminates, never silently."""
        pending = self._pending.get(query_id)
        if pending is None:
            return  # answered in time
        network = self.peer._require_network()
        network.metrics.count("deadline_expirations")
        network.emit_event(
            "deadline_expired", peer=self.peer.peer_id,
            query_id=query_id, deadline=deadline,
        )
        pending.span.annotate(f"deadline ({deadline:g}) expired: cancelling")
        if pending.executor is not None:
            pending.executor.abort()
        self.finalize(pending, error=f"deadline exceeded ({deadline:g})")

    # ------------------------------------------------------------------
    # stage 2: route
    # ------------------------------------------------------------------
    def route(self, pending: PendingQuery) -> None:
        """Acquire the annotated query pattern the architecture's way;
        it comes back through :meth:`compile`."""
        self.peer._obtain_routing(pending)

    def retry_routing(self, query_id: str) -> None:
        """Route again, unless the query was answered meanwhile."""
        pending = self._pending.get(query_id)
        if pending is not None:
            self.route(pending)

    def route_local(self, pattern: QueryPattern, trace=None) -> AnnotatedQueryPattern:
        """Route ``pattern`` from the peer's local knowledge: the
        advertisements it holds (cached, and coherent under churn) with
        its *own* beside them, derived from the base at every call — the
        base can mutate silently between queries, so nothing about it
        is remembered that could drift.

        A ``subsumption`` stage under ``trace`` covers the actual
        view-subsumption routing pass; routing-cache hits skip it
        entirely (that is the point of the cache).
        """
        peer = self.peer
        stage = partial(
            peer._require_network().tracer.stage, "subsumption", peer.peer_id, trace
        )
        return peer.sons.route(pattern, peer.own_advertisements(), stage)

    # ------------------------------------------------------------------
    # stage 3: compile
    # ------------------------------------------------------------------
    def compile(self, pending: PendingQuery, annotated: AnnotatedQueryPattern) -> None:
        """Routing answered: plan over the peers still eligible, then
        execute — or hand a plan with holes to the architecture."""
        annotated = annotated.without_peers(self._excluded_for(pending))
        annotated = apply_peer_bound(
            annotated, pending.constraints, self.peer.statistics
        )
        pending.annotated = annotated
        plan = self.plan_for(annotated, trace=pending.span.context())
        if plan.is_complete():
            self.execute(pending, plan)
        else:
            self.peer._handle_incomplete(pending, plan, annotated)

    def _excluded_for(self, pending: PendingQuery) -> Set[str]:
        """Peers excluded from this query's routing: those observed to
        fail during it plus (when enabled) the quarantined ones."""
        excluded = set(pending.excluded)
        if self.peer.config.resilience.quarantine_enabled:
            excluded |= self.peer.sons.quarantine.peers
        return excluded

    def plan_for(self, annotated: AnnotatedQueryPattern, trace=None) -> PlanNode:
        """Compile (and optimise) the plan for an annotated pattern.

        A ``plan.compile`` span covers the pass; each optimiser rewrite
        that changed the plan becomes an ``optimize.<rule>`` child span,
        and plan-cache hits are tagged ``cached``.  With cost-based
        planning on, an ``optimize.cost`` span records the chosen
        plan's estimated cost against the rule-based alternative's.
        """
        peer = self.peer
        config = peer.config
        network = peer._require_network()
        statistics = peer.statistics
        if config.cost_based:
            # refresh link costs from observed channel behaviour before
            # pricing (rounded folding, so unchanged observations do
            # not churn the statistics version / plan cache)
            statistics.fold_link_observations(network.metrics.link_observations())
        tracer = network.tracer
        span = tracer.stage("plan.compile", peer.peer_id, trace)
        version = statistics.version
        if peer.plan_cache is not None:
            plan = peer.plan_cache.get(annotated, version)
            if plan is not None:
                span.set(cached=True)
                span.finish()
                return plan
        plan = build_plan(annotated)
        traced = optimize(
            plan,
            CostModel(statistics),
            cost_based=config.cost_based,
            coordinator=peer.peer_id,
        )
        if tracer.enabled:  # skip the rewrite stages on the no-op path
            for rule, step in traced.steps[1:]:
                # the plan object itself; rendered only at export
                tracer.stage(
                    f"optimize.{rule}", peer.peer_id, span.context(), plan=step,
                ).finish()
            if traced.cost_decision is not None:
                tracer.stage(
                    "optimize.cost",
                    peer.peer_id,
                    span.context(),
                    chosen=traced.cost_decision["chosen"],
                    rejected=traced.cost_decision["rejected"],
                ).finish()
        plan = traced.result
        if peer.plan_cache is not None:
            peer.plan_cache.put(annotated, plan, version)
        span.finish()
        return plan

    # ------------------------------------------------------------------
    # stage 4: execute (+ run-time adaptation, Section 2.5)
    # ------------------------------------------------------------------
    def execute(
        self,
        pending: PendingQuery,
        plan: PlanNode,
        coverage: Optional[Coverage] = None,
        reason: str = "",
    ) -> None:
        """Run one attempt of ``plan`` — the full query's, or (from
        :meth:`give_up`, with the ``coverage`` of the answer and the
        ``reason`` the full one was abandoned) the answerable
        sub-pattern's."""
        peer = self.peer
        config = peer.config
        sites = None
        if config.cost_based:
            # cost-based planning also lets the model choose data/
            # query/hybrid shipping per subplan (Section 2.5); the plan
            # is the executor's only one, output 0
            placed = assign_sites(plan, peer.peer_id, CostModel(peer.statistics))
            sites = {(0,) + path: site for path, site in placed.sites.items()}

        def on_complete(tables, failed: Optional[str]) -> None:
            peer.last_first_output_at = executor.first_output_at
            if failed is None:
                self.finalize(pending, tables[0], coverage=coverage)
            elif coverage is None:
                self._on_execution_failure(pending, failed)
            else:
                # the degraded plan failed too: shrink further (the
                # annotation set loses at least one peer per round, so
                # this recursion is bounded)
                pending.excluded.add(failed)
                peer.sons.suspect(failed)
                self.give_up(pending, reason)

        pending.attempts += 1
        pending.executor = executor = peer.plan_executor(
            (plan,),
            on_complete,
            sites=sites,
            query_id=pending.query_id,
            trace=pending.span.context(),
            query=pending,
            schema=pending.pattern.schema,
        )
        executor.start()
        if config.monitor_interval is not None:
            self._schedule_monitor_tick(pending, executor)

    def _schedule_monitor_tick(self, pending: PendingQuery, executor) -> None:
        self.peer._require_network().call_later(
            self.peer.config.monitor_interval,
            lambda: self._monitor_tick(pending, executor),
        )

    def _monitor_tick(self, pending: PendingQuery, executor) -> None:
        """Check the attempt's open channels — one per destination —
        for stalled tuple flow.

        A channel none of whose outputs made progress across
        :data:`STALL_CHECKS` consecutive ticks is declared failed (which
        reaches every output's continuation); the usual adaptation path
        then replans without its destination ("the root node of each
        channel is responsible for identifying possible problems ...
        and for handling them accordingly").
        """
        if pending.finished or pending.executor is not executor:
            return  # answered, or a newer attempt runs its own monitor
        channels = self.peer.channels
        stalled_channel = None
        for channel_id, channel in channels.open_channels().items():
            if channel.query_id != pending.query_id:
                continue
            seen, count = pending.stalls.get(channel_id, (None, 0))
            count = count + 1 if seen == channel.tuples_received else 1
            pending.stalls[channel_id] = (channel.tuples_received, count)
            if count > STALL_CHECKS:
                stalled_channel = channel_id
        if stalled_channel is not None:
            pending.stalls.pop(stalled_channel, None)
            pending.span.annotate(f"stalled channel {stalled_channel} declared failed")
            channels.on_failure(stalled_channel)
            return  # the failure path schedules no further ticks itself
        self._schedule_monitor_tick(pending, executor)

    def _on_execution_failure(self, pending: PendingQuery, failed_peer: str) -> None:
        """Run-time adaptation: exclude the obsolete peer, discard
        partial results, re-route and re-execute (Section 2.5)."""
        peer = self.peer
        pending.excluded.add(failed_peer)
        pending.span.annotate(
            f"replan: peer {failed_peer} failed (attempt {pending.attempts})"
        )
        network = peer._require_network()
        network.emit_event(
            "replan", peer=peer.peer_id, query_id=pending.query_id,
            failed_peer=failed_peer, attempt=pending.attempts,
        )
        peer.sons.suspect(failed_peer)
        # ubQL: discard on-going computation; phased: salvage the old
        # phase's in-flight scan results into the cache
        pending.executor.abort()
        budget = peer.config.replan_budget
        if budget.exhausted(pending.attempts):
            self.give_up(pending, f"peer {failed_peer} failed")
            return
        if pending.executor.strategy.scan_cache is not None:
            # phase boundary: give the previous phase's completed
            # computations time to land before the cleanup/retry phase
            delay = PHASE_SETTLE_TIME
        else:
            # back off before the next round: a failing region gets
            # breathing room instead of a tight replan storm
            delay = budget.delay(pending.attempts)
        if delay > 0:
            network.call_later(delay, lambda: self.retry_routing(pending.query_id))
        else:
            self.route(pending)

    def give_up(self, pending: PendingQuery, reason: str) -> None:
        """The adaptation loop cannot repair the query.  With
        ``config.resilience.partial_results`` on, restrict the query to
        its still-answerable path patterns and run *that* through
        :meth:`execute`, the answer annotated with coverage metadata;
        otherwise report the error."""
        if pending.finished:
            return
        plan = None
        degrade = self.peer.config.resilience.partial_results
        if degrade and pending.annotated is not None:
            excluded = self._excluded_for(pending)
            available = pending.annotated.without_peers(excluded)
            restricted = restrict_to_answerable(available)
            if restricted is not None:
                pending.span.annotate(f"degrade to partial answer: {reason}")
                plan = self.plan_for(restricted, trace=pending.span.context())
        if plan is None or not plan.is_complete():
            self.finalize(pending, error=reason)
            return
        coverage = Coverage(
            answered=tuple(p.label for p in restricted.query_pattern),
            unanswered=tuple(p.label for p in available.unannotated_patterns()),
            excluded_peers=tuple(sorted(excluded)),
            attempts=pending.attempts,
        )
        pending.annotated = restricted
        self.execute(pending, plan, coverage, reason)

    # ------------------------------------------------------------------
    # stage 5: finalize
    # ------------------------------------------------------------------
    def finalize(
        self,
        pending: PendingQuery,
        table: Optional[BindingBatch] = None,
        error: Optional[str] = None,
        coverage: Optional[Coverage] = None,
    ) -> None:
        """The single exit of a coordination: ``table`` (an id table)
        becomes the answer — a partial one when ``coverage`` says what
        a degraded run left out — or ``error`` does.  A query already
        answered (first winner took it) is left alone."""
        if pending.finished:
            return
        pending.finished = True
        self._pending.pop(pending.query_id, None)
        network = self.peer._require_network()
        if table is not None:
            if coverage is not None:
                network.metrics.count("partial_results")
            table = shape(pending.query, table, self.peer.dictionary)
            bounds = pending.constraints
            if bounds.order_by is not None or bounds.max_results is not None:
                # ordering compares terms: the one case that unpacks here
                table = EncodedTable.of_terms(
                    bounds.apply_result_bounds(table.to_terms())
                )
        # idempotent: closes a routing round still open when the query
        # is abandoned mid-routing (hybrid timeout give-up)
        pending.routing_span.finish("abandoned")
        status = "error" if table is None else "partial" if coverage is not None else "ok"
        pending.span.set(attempts=pending.attempts)
        pending.span.finish(status)
        network.tracer.summarize(
            pending.query_id, pending.span, status, attempts=pending.attempts,
            error=error, coverage=coverage and coverage.describe(),
        )
        answered = [pending]
        if self._coalescer is not None:
            answered += self._coalescer.complete(pending.query_id)
        for query in answered:  # the leader, then its coalesced followers
            result = QueryResult(query.query_id, table, error, coverage)
            if query.resubmits:
                self._remember_completed(result)
            network.metrics.query_finished(query.query_id, network.now)
            self._answer(result, query.reply_to, query.on_result)
        # the finished coordination freed a slot: admit parked queries
        self._drain_admission_queue()

    def _answer(
        self, payload, reply_to: str, on_result: Optional[ResultContinuation] = None
    ) -> None:
        """By continuation (internal consumers), by message, or — a
        query submitted locally, the way tests drive peers — not at all."""
        if on_result is not None:
            on_result(payload)
        elif reply_to != self.peer.peer_id:
            self.peer.send(reply_to, payload)

    def _remember_completed(self, result: QueryResult) -> None:
        """Remember an answered query (bounded FIFO) so duplicate
        submissions are replied to idempotently."""
        self._completed[result.query_id] = result
        while len(self._completed) > COMPLETED_QUERY_LIMIT:
            self._completed.pop(next(iter(self._completed)))
