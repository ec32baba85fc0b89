"""Simple peers: storage, advertisement and the host of a coordinator.

A simple peer shares its base with the SON, answers subplans, files the
advertisements it hears in its :class:`~repro.peers.son.SONRegistry`,
keeps the plan cache over them honest under churn and live updates, and
re-evaluates standing queries.  When a client submits a query to it, its
:class:`~repro.peers.coordinator.QueryCoordinator` runs the query's
``parse → route → compile → execute → finalize`` pipeline, run-time
adaptation included; this class supplies the two steps that depend on
the architecture (how the annotated pattern is obtained, what happens
to a plan with holes).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, FrozenSet, List, Optional

from ..cache.plan_cache import PlanCache
from ..config import DEFAULT_CONFIG, PeerConfig
from ..core.algebra import PlanNode
from ..core.annotations import AnnotatedQueryPattern
from ..core.cost import StatSummary, Statistics, harvest_stat_summary
from ..execution.encoded import EncodedTable
from ..livedata.continuous import StandingQuery, table_delta
from ..livedata.maintenance import LiveMaintainer
from ..livedata.updates import (
    AdvertiseDelta,
    ContinuousUpdate,
    UpdateAck,
)
from ..net.message import Message
from ..rdf.terms import URI
from ..rql.bindings import BindingTable
from ..rvl.active_schema import ActiveSchema
from .base import Peer, PeerBase
from .coordinator import PendingQuery, QueryCoordinator
from .protocol import (
    Advertise,
    AdvertisementReply,
    AdvertisementRequest,
    Goodbye,
    QueryResult,
    QuerySubmit,
)
from .son import SONRegistry


class AdvertisementTracker:
    """Tracks a base's intensional footprint across updates: when it
    changes *intensionally* (a property becomes populated or empties
    out) a fresh advertisement is due; purely extensional churn stays
    silent — the economy Section 2.2 claims over full data indices.

    Args:
        base: The peer's :class:`~repro.peers.base.PeerBase`.

    The tracker remembers the footprint last advertised;
    :meth:`refresh` returns a new advertisement only when the footprint
    changed since.
    """

    def __init__(self, base):
        self.base = base
        self._advertised: Optional[FrozenSet[URI]] = None

    def _footprint(self) -> FrozenSet[URI]:
        if self.base.views:
            merged = None
            for view in self.base.views:
                derived = ActiveSchema.from_view(view, self.base.schema, "_")
                merged = derived if merged is None else merged.merge(derived)
            return frozenset(p.property for p in (merged or ActiveSchema("_")))
        graph = self.base.graph
        return frozenset(
            prop for prop in self.base.schema.properties if graph.has(predicate=prop)
        )

    def mark_advertised(self) -> None:
        """Record the current footprint as the advertised one."""
        self._advertised = self._footprint()

    def needs_refresh(self) -> bool:
        """True when the footprint drifted from the advertised one."""
        return self._footprint() != self._advertised

    def refresh(self, peer_id: str) -> Optional[ActiveSchema]:
        """A fresh advertisement when needed, else ``None``."""
        if not self.needs_refresh():
            return None
        self.mark_advertised()
        return self.base.active_schema(peer_id)


class SimplePeer(Peer):
    """A peer with a local base that can coordinate queries.

    Per-query work lives in :attr:`coordinator`; this class owns what
    outlives a query.  The base class routes from *local knowledge*
    (its own base beside the advertisements filed in :attr:`sons`); the
    hybrid and ad-hoc subclasses override :meth:`_obtain_routing` /
    :meth:`_handle_incomplete` with their architecture's behaviour and
    reach a query's state through the coordinator's public methods.

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
        #: first rows
        self.last_first_output_at: Optional[float] = None
        self.statistics = statistics or Statistics()
        #: what this node knows of its SONs: the advertisements it has
        #: heard (per-SON routing indices and their caches), quarantine
        #: verdicts, the durable log of both
        self.sons = SONRegistry(self, [b.schema for b in self.all_bases()])
        self._query_counter = itertools.count(1)
        self._tracker = AdvertisementTracker(base) if base is not None else None
        #: compiled plans by annotation (None when caching is disabled)
        self.plan_cache = PlanCache() if config.cache_enabled else None
        #: True while this peer is re-entering the overlay after a
        #: crash/departure: the advertisements pushed by ``join`` carry
        #: the rejoin flag so holders rehabilitate instead of merely
        #: registering (repro.membership)
        self.rejoining = False
        #: live data plane (repro.livedata): the incremental maintainer
        #: is created on the first UpdateBatch; standing queries push
        #: binding deltas per quiescent revision
        self._maintainer: Optional[LiveMaintainer] = None
        self._standing: Dict[str, StandingQuery] = {}
        #: every in-flight query's state and the pipeline it runs
        self.coordinator = QueryCoordinator(self)

    def join(self, network) -> None:
        super().join(network)
        self.sons.join(network)
        if self.plan_cache is not None:
            self.plan_cache.bind_metrics(network.metrics)

    def _rehabilitate(self, peer_id: str) -> None:
        """A rejoin-flagged advertisement announced the peer is back:
        lift its quarantine and let every in-flight query replan onto
        it — a recovery landing within the :class:`~repro.core.
        adaptivity.ReplanBudget` upgrades a would-be partial to a full
        answer."""
        if peer_id == self.peer_id:
            return
        if self.sons.restore(peer_id):
            self._require_network().emit_event(
                "rehabilitate", peer=self.peer_id, suspect=peer_id
            )
        self.coordinator.readmit(peer_id)

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
        """File a remote peer's advertisement (an echo of this peer's
        own is not knowledge about the SON and is dropped)."""
        if advertisement.peer_id and advertisement.peer_id != self.peer_id:
            previous = self.sons.add(advertisement)
            if previous is not None and previous != advertisement:
                self._footprint_moved(advertisement.peer_id)

    def _footprint_moved(self, peer_id: str) -> None:
        """``peer_id``'s advertisement changed (live updates, view
        redefinitions) or is gone: cached plans naming it may embed
        subqueries rewritten against the old one, and a racing stale
        annotation would still hit them."""
        if self.plan_cache is not None:
            self.plan_cache.invalidate_peer(peer_id)

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
        self.sons.remove_peer(departed)
        self._footprint_moved(departed)

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
        if result.delta is not None:
            self._push_advertisement_delta(result.delta)
        self.send(
            message.src, UpdateAck(self.peer_id, batch.revision, result.applied)
        )

    def _push_advertisement_delta(self, delta: AdvertiseDelta) -> None:
        """Ship only the flipped schema fragments to the advertisement
        holders, and drop this peer's cached plans naming itself (their
        annotations were computed under the old footprint)."""
        network = self._require_network()
        delta = replace(delta, stats=self.own_stat_summary())
        for target in self._advertisement_targets():
            self.send(target, delta)
        if self._tracker is not None:
            # the delta already told holders everything a full
            # refresh() would re-push: keep the tracker coherent
            self._tracker.mark_advertised()
        self._footprint_moved(self.peer_id)
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
        delta (ad-hoc neighbours hold advertisements directly).  A
        delta that changes nothing — a duplicated delivery — leaves the
        cached plans naming the sender alone."""
        delta: AdvertiseDelta = message.payload
        if delta.peer_id == self.peer_id:
            return
        if delta.stats is not None:
            self.statistics.fold_summary(delta.stats)
        patched = self.sons.patch(delta)
        if patched is None:
            # no baseline to patch: pull the full advertisement instead
            self.send(message.src, AdvertisementRequest(self.peer_id, 1))
            return
        previous, advertisement = patched
        if advertisement != previous:
            self._footprint_moved(delta.peer_id)

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
        pipeline; the result lands in :meth:`_finish_standing` as the
        query's continuation instead of a reply message."""
        standing.evaluating = True
        eval_id = (
            f"{standing.query_id}-r{revision}-e{next(self._query_counter)}"
        )
        network = self._require_network()
        network.metrics.query_started(eval_id, network.now)
        self.coordinator.parse(
            QuerySubmit(eval_id, standing.text, self.peer_id),
            on_result=lambda result: self._finish_standing(standing, revision, result),
        )

    def _finish_standing(
        self, standing: StandingQuery, revision: int, result: QueryResult
    ) -> None:
        standing.evaluating = False
        network = self._require_network()
        columns = standing.snapshot.columns if standing.snapshot is not None else ()
        error = result.error
        if error is None:
            current = result.table.to_terms()
        elif "no relevant peers" in error:
            # the community currently holds nothing the query touches —
            # for a *standing* query that is an empty answer, not a
            # failure: peers may advertise matching fragments at any
            # later revision and the subscription must survive to see
            # them (advertisements derive from base content, so an
            # unrouted query has no entailed matches either)
            current, error = BindingTable(columns), None
        if standing.query_id in self._standing:  # not cancelled meanwhile
            if error is not None:
                added = removed = BindingTable(columns)
            else:
                added, removed = table_delta(standing.snapshot, current)
            if error is not None or added or removed or standing.snapshot is None:
                network.metrics.count("continuous_pushes")
                self.send(
                    standing.reply_to,
                    ContinuousUpdate(
                        standing.query_id,
                        EncodedTable.of_terms(added),
                        EncodedTable.of_terms(removed),
                        revision,
                        error,
                    ),
                )
            if error is None:
                standing.snapshot = current
                standing.revision = revision
        if standing.pending_revisions and standing.query_id in self._standing:
            self._evaluate_standing(standing, standing.pending_revisions.pop(0))

    # ------------------------------------------------------------------
    # query coordination: the entry and the two architecture-specific
    # steps of the coordinator's pipeline
    # ------------------------------------------------------------------
    def handle_QuerySubmit(self, message: Message) -> None:
        self.coordinator.submit(message.payload, message.trace)

    def _obtain_routing(self, pending: PendingQuery) -> None:
        """Acquire the annotated query pattern.  Base behaviour: route
        from local knowledge (subclasses ask super-peers or interleave)."""
        span = self._require_network().tracer.stage(
            "routing", self.peer_id, pending.span.context(), mode="local"
        )
        pending.routing_span = span
        annotated = self.coordinator.route_local(pending.pattern, trace=span.context())
        span.set(peers=len(annotated.all_peers()))
        span.finish()
        self.coordinator.compile(pending, annotated)

    def _handle_incomplete(
        self, pending: PendingQuery, plan: PlanNode, annotated: AnnotatedQueryPattern
    ) -> None:
        """No peer is known for some path pattern.  Base behaviour:
        give up — an error, or a coverage-annotated partial answer when
        degradation is on (the ad-hoc subclass forwards partial plans
        instead)."""
        holes = ", ".join(h.render() for h in plan.holes())
        self.coordinator.give_up(pending, f"no relevant peers for: {holes}")

    def handle_DataPacket(self, message: Message) -> None:
        """Before the bindings go to their channel, fold the
        cardinalities the destination reports on its stream's first
        packet (Section 2.5) into the local statistics store, keyed by
        the sender — they describe its base, whatever became of the
        channel they were measured on — so the optimiser of subsequent
        queries benefits.  Idempotent, so duplicates and replays fold
        nothing twice."""
        for prop_value, rows in message.payload.cardinalities.items():
            self.statistics.set_cardinality(message.src, URI(prop_value), rows)
        super().handle_DataPacket(message)

    def load(self) -> Dict[str, int]:
        return {
            **super().load(),
            "pending_queries": self.coordinator.in_flight(),
            "quarantined_peers": len(self.sons.quarantine),
            "known_advertisements": len(self.sons),
            "queued_queries": self.coordinator.queued(),
            "completed_queries": self.coordinator.remembered(),
            "plan_cache_entries": len(self.plan_cache or ()),
        }
