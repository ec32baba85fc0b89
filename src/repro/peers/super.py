"""Super-peers: routing servers of the hybrid architecture (Section 3.1).

A super-peer collects the active-schemas of the simple peers clustered
under it (one cluster per community schema / SON), answers
:class:`~repro.peers.protocol.RouteRequest` messages by running the
routing algorithm over its registry, and forwards requests for schemas
it is not responsible for across the super-peer backbone.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set

from ..config import DEFAULT_CONFIG, PeerConfig
from ..core.annotations import AnnotatedQueryPattern, PeerAnnotation
from ..core.cost import Statistics
from ..core.routing_index import RoutingIndex
from ..errors import PeerError
from ..livedata.updates import AdvertiseDelta, apply_advertisement_delta
from ..mappings.articulation import Articulation
from ..net.message import Message
from ..rdf.schema import Schema
from ..resilience.detector import FailureDetector, PeerQuarantine
from ..rvl.active_schema import ActiveSchema
from .base import Peer
from .protocol import (
    Advertise,
    AdvertisementReply,
    AdvertisementRequest,
    RouteBusy,
    RouteReply,
    RouteRequest,
)

#: Guard against route requests circulating the backbone forever.
MAX_BACKBONE_HOPS = 8


class SuperPeer(Peer):
    """A routing server for one or more SONs.

    Args:
        peer_id: Network address.
        schemas: The community schemas this super-peer is responsible
            for (it can route queries over them).
        backbone_directory: Shared mapping schema URI → responsible
            super-peer id; lets any super-peer forward a request for an
            unknown schema to the right one.  All super-peers of a
            deployment share one directory instance.
        parent: Optional parent super-peer for the multi-layered
            hierarchical organisation of Section 3.1: requests for
            schemas unknown to this layer escalate upward instead of
            failing.
        statistics: Shared :class:`~repro.core.cost.Statistics` store.
            When set, advertised :class:`~repro.core.cost.StatSummary`
            payloads are folded into it and observed channel behaviour
            (from the network's per-link histograms) refreshes its link
            costs on every served route request.  None (the default)
            keeps the seed's static-defaults behaviour.
        config: The deployment's :class:`~repro.config.PeerConfig`; a
            super-peer reads ``cache_enabled`` (a routing cache over
            every per-SON index, kept coherent under churn by scoped
            invalidation), ``resilience.quarantine_enabled`` (suspected
            cluster members stay out of route replies until heard from
            again) and ``admission`` (route requests queue and are
            served one per ``service_time``; overflow is answered with
            RouteBusy).
    """

    def __init__(
        self,
        peer_id: str,
        schemas: Iterable[Schema] = (),
        backbone_directory: Optional[Dict[str, str]] = None,
        parent: Optional[str] = None,
        statistics: Optional[Statistics] = None,
        config: PeerConfig = DEFAULT_CONFIG,
    ):
        super().__init__(peer_id, base=None, config=config)
        self.parent = parent
        self.statistics = statistics
        self.schemas: Dict[str, Schema] = {s.namespace.uri: s for s in schemas}
        self.backbone_directory = (
            backbone_directory if backbone_directory is not None else {}
        )
        for uri in self.schemas:
            self.backbone_directory[uri] = peer_id
        self.registry: Dict[str, Dict[str, ActiveSchema]] = {
            uri: {} for uri in self.schemas
        }
        #: per-SON property-bucket indices for O(candidates) routing
        self.indices: Dict[str, RoutingIndex] = {
            uri: RoutingIndex(schema, use_cache=config.cache_enabled)
            for uri, schema in self.schemas.items()
        }
        self.articulations: List[Articulation] = []
        self.quarantine = PeerQuarantine()
        self._route_queue: Deque[Message] = deque()
        self._route_service_busy = False

    def join(self, network) -> None:
        super().join(network)
        for index in self.indices.values():
            if index.cache is not None:
                index.cache.bind_metrics(network.metrics)
                index.cache.on_invalidate = lambda count: network.emit_event(
                    "cache_invalidate", peer=self.peer_id, entries=count
                )
        # liveness control events keep the per-SON routing caches
        # honest: entries must never resurrect a peer known to be down
        network.add_liveness_listener(self._on_liveness)

    def load(self) -> Dict[str, int]:
        return {
            **super().load(),
            "quarantined_peers": len(self.quarantine),
            "queued_route_requests": len(self._route_queue),
        }

    # ------------------------------------------------------------------
    # liveness / suspicion
    # ------------------------------------------------------------------
    def _on_liveness(self, peer_id: str, alive: bool) -> None:
        if peer_id == self.peer_id:
            return
        if alive:
            self.restore_peer(peer_id)
        else:
            self._invalidate_routing(peer_id)

    def _invalidate_routing(self, peer_id: str) -> None:
        for index in self.indices.values():
            if index.cache is not None:
                index.cache.invalidate_peer(peer_id)

    def suspect_peer(self, peer_id: str) -> None:
        """Quarantine a cluster member the failure detector suspects:
        it disappears from route replies (the advertisement registry is
        untouched, so a heartbeat restores it without re-advertising)."""
        if peer_id == self.peer_id:
            return
        if self.network is not None:
            self.network.metrics.count("suspicions")
        self._invalidate_routing(peer_id)
        if self.config.resilience.quarantine_enabled:
            tripped = self.quarantine.record_failure(peer_id)
            if tripped:
                if self.network is not None:
                    self.network.emit_event(
                        "quarantine", peer=self.peer_id, suspect=peer_id
                    )
                if self.state_store is not None:
                    self.state_store.log_quarantine(peer_id)

    def restore_peer(self, peer_id: str) -> None:
        """The peer was heard from again (heartbeat, recovery or a
        fresh advertisement): lift its quarantine and — symmetric with
        :meth:`suspect_peer` — invalidate its routing-cache scope, so
        entries computed while it was excluded cannot linger."""
        if self.quarantine.restore(peer_id):
            self._invalidate_routing(peer_id)
            if self.state_store is not None:
                self.state_store.log_rehabilitate(peer_id)

    def watch_cluster(
        self, suspicion_timeout: float = 30.0, interval: float = 10.0
    ) -> FailureDetector:
        """Run a heartbeat failure detector over every registered
        cluster member.  The caller drives it (``poll()`` per round, or
        a bounded ``start(rounds)``); beats arrive automatically via
        :meth:`handle_Heartbeat`."""
        network = self.network
        if network is None:
            raise PeerError(f"super-peer {self.peer_id} has not joined a network")
        detector = FailureDetector(
            self.peer_id,
            network,
            suspicion_timeout=suspicion_timeout,
            interval=interval,
            on_suspect=self.suspect_peer,
            on_restore=self.restore_peer,
        )
        for son in self.registry.values():
            for peer_id in son:
                detector.watch(peer_id)
        self.failure_detector = detector
        return detector

    def add_articulation(self, articulation: Articulation) -> None:
        """Register a mediation mapping.  The super-peer must manage
        both SONs (it needs the target SON's advertisements to route
        reformulated queries).

        Raises:
            PeerError: When either schema is not managed here.
        """
        for schema in (articulation.source, articulation.target):
            uri = schema.namespace.uri
            if uri not in self.schemas:
                self.schemas[uri] = schema
                self.backbone_directory[uri] = self.peer_id
                self.registry.setdefault(uri, {})
                index = RoutingIndex(schema, use_cache=self.config.cache_enabled)
                if index.cache is not None and self.network is not None:
                    network = self.network
                    index.cache.bind_metrics(network.metrics)
                    index.cache.on_invalidate = (
                        lambda count: network.emit_event(
                            "cache_invalidate", peer=self.peer_id, entries=count
                        )
                    )
                self.indices.setdefault(uri, index)
        self.articulations.append(articulation)

    # ------------------------------------------------------------------
    # advertisement registry
    # ------------------------------------------------------------------
    def handle_Advertise(self, message: Message) -> None:
        payload = message.payload
        stats = payload.stats
        if stats is not None and self.statistics is not None:
            # Section 2.5: observed per-predicate cardinalities and
            # distinct counts replace the optimiser's static defaults
            self.statistics.fold_summary(stats)
        self.register_advertisement(payload.active_schema, rejoin=payload.rejoin)

    def register_advertisement(
        self, advertisement: ActiveSchema, rejoin: bool = False, record: bool = True
    ) -> None:
        """Register (or refresh) one clustered peer's advertisement.

        ``rejoin`` marks a peer coming back after a crash/departure: it
        is rehabilitated and the advertisement is rebroadcast to the
        SON's other members so coordinator-local quarantines lift too.
        ``record=False`` replays recovered registry state without
        re-logging or re-counting it.
        """
        if advertisement.peer_id is None:
            raise PeerError("advertisement without peer id")
        son = self.registry.setdefault(advertisement.schema_uri, {})
        previous = son.get(advertisement.peer_id)
        son[advertisement.peer_id] = advertisement
        index = self.indices.get(advertisement.schema_uri)
        if index is not None:
            index.add(advertisement)
        if record:
            if self.network is not None:
                if rejoin:
                    self.network.metrics.count("rejoins")
                    self.network.emit_event(
                        "rejoin", peer=advertisement.peer_id, via=self.peer_id
                    )
                elif previous is None:
                    self.network.metrics.count("joins")
                    self.network.emit_event(
                        "join", peer=advertisement.peer_id, via=self.peer_id
                    )
            if self.state_store is not None and previous != advertisement:
                self.state_store.log_advertise(advertisement)
        # a fresh advertisement is proof of life
        self.restore_peer(advertisement.peer_id)
        if self.failure_detector is not None:
            self.failure_detector.watch(advertisement.peer_id)
            self.failure_detector.beat(advertisement.peer_id)
        if rejoin and record:
            self._broadcast_rehabilitation(advertisement)

    def _broadcast_rehabilitation(self, advertisement: ActiveSchema) -> None:
        """Tell the SON's other members their fellow is back.  The
        rejoin travels the message plane, so coordinator quarantines
        lift identically over the simulated and the live transport."""
        son = self.registry.get(advertisement.schema_uri, {})
        for member in sorted(son):
            if member != advertisement.peer_id:
                self.send(member, Advertise(advertisement, rejoin=True))

    def deregister(self, peer_id: str, record: bool = True) -> None:
        """Drop a departed peer's advertisements from every SON."""
        dropped = False
        for son in self.registry.values():
            if son.pop(peer_id, None) is not None:
                dropped = True
        for index in self.indices.values():
            index.remove(peer_id)
        if self.failure_detector is not None:
            self.failure_detector.unwatch(peer_id)
        if dropped and record:
            if self.network is not None:
                self.network.metrics.count("goodbyes")
            if self.state_store is not None:
                self.state_store.log_goodbye(peer_id)

    def handle_AdvertiseDelta(self, message: Message) -> None:
        """A clustered peer's active-schema changed *by this much*:
        patch the registered advertisement and refile it.  Refiling
        through :meth:`register_advertisement` reuses the full-refresh
        path — :meth:`~repro.core.routing_index.RoutingIndex.add`
        rebuckets the advertisement and invalidates exactly the
        affected routing-cache scope — so delta and full refreshes are
        behaviourally identical, only cheaper on the wire."""
        delta: AdvertiseDelta = message.payload
        if delta.stats is not None and self.statistics is not None:
            self.statistics.fold_summary(delta.stats)
        previous = self.registry.get(delta.schema_uri, {}).get(delta.peer_id)
        if previous is None:
            # no registered baseline to patch (the delta raced ahead of
            # the initial push, or state was lost): pull the full
            # advertisement instead of guessing
            self.send(delta.peer_id, AdvertisementRequest(self.peer_id, 1))
            return
        self.register_advertisement(apply_advertisement_delta(previous, delta))
        if self.network is not None:
            self.network.emit_event(
                "advertise_delta",
                peer=delta.peer_id,
                via=self.peer_id,
                added=len(delta.added_paths) + len(delta.added_classes),
                removed=len(delta.removed_paths) + len(delta.removed_classes),
            )

    def handle_AdvertisementReply(self, message: Message) -> None:
        """Register pulled advertisements — the recovery path when an
        :class:`~repro.livedata.updates.AdvertiseDelta` arrived without
        a registered baseline."""
        for advertisement in message.payload.schemas:
            if advertisement.peer_id:
                self.register_advertisement(advertisement)

    def handle_Goodbye(self, message: Message) -> None:
        """A clustered peer departs: forget its advertisements."""
        self.deregister(message.payload.peer_id)

    def handle_AdvertisementRequest(self, message: Message) -> None:
        """Pull: reply with every advertisement in the registry.

        Simple peers use this for neighbourhood discovery; deployment
        launchers use it to observe when a live cluster's advertisement
        push has settled."""
        request: AdvertisementRequest = message.payload
        schemas = tuple(
            advertisement
            for son in self.registry.values()
            for advertisement in sorted(son.values(), key=lambda a: a.peer_id or "")
        )
        self.send(request.requester, AdvertisementReply(schemas, self.peer_id))

    def advertisements_for(self, schema_uri: str) -> List[ActiveSchema]:
        return sorted(
            self.registry.get(schema_uri, {}).values(), key=lambda a: a.peer_id or ""
        )

    def cluster(self, schema_uri: str) -> Set[str]:
        """The peers clustered under this super-peer for one SON."""
        return set(self.registry.get(schema_uri, {}))

    # ------------------------------------------------------------------
    # routing service
    # ------------------------------------------------------------------
    def is_responsible_for(self, schema_uri: str) -> bool:
        return schema_uri in self.schemas

    def handle_RouteRequest(self, message: Message) -> None:
        admission = self.config.admission
        if admission is None:
            self._serve_route_request(message)
            return
        network = self._require_network()
        if len(self._route_queue) >= admission.max_queued:
            # the routing service is saturated: refuse with a back-off
            # hint instead of queueing unboundedly
            request: RouteRequest = message.payload
            network.metrics.count("queries_shed")
            network.emit_event(
                "shed", peer=self.peer_id, query_id=request.query_id,
                service="routing",
            )
            self.send(
                request.requester,
                RouteBusy(request.query_id, admission.retry_after, self.peer_id),
            )
            return
        self._route_queue.append(message)
        network.metrics.record_queue_depth(len(self._route_queue))
        if not self._route_service_busy:
            self._route_service_busy = True
            network.call_later(admission.service_time, self._serve_next_route)

    def _serve_next_route(self) -> None:
        """Serve one queued route request (paced by ``service_time``)."""
        if not self._route_queue:
            self._route_service_busy = False
            return
        message = self._route_queue.popleft()
        self._serve_route_request(message)
        admission = self.config.admission
        if self._route_queue and admission is not None:
            self._require_network().call_later(
                admission.service_time, self._serve_next_route
            )
        else:
            self._route_service_busy = False

    def _serve_route_request(self, message: Message) -> None:
        request: RouteRequest = message.payload
        network = self._require_network()
        if self.statistics is not None:
            # fold observed channel bandwidth/latency into link costs
            # so the cost model prices shipping with live numbers
            self.statistics.fold_link_observations(
                network.metrics.link_observations()
            )
        schema_uri = request.pattern.schema.namespace.uri
        # the route-service span stitches under the requester's routing
        # span (its context rides in the request message, hop by hop)
        span = network.tracer.start_span(
            "route",
            peer=self.peer_id,
            parent=message.trace,
            query=request.query_id,
            schema=schema_uri,
            hops=request.hops,
        )
        if self.is_responsible_for(schema_uri):
            check = network.tracer.start_span(
                "subsumption",
                peer=self.peer_id,
                parent=span.context(),
                registered=len(self.registry.get(schema_uri, {})),
            )
            annotated = self.indices[schema_uri].route(request.pattern)
            check.set(peers=len(annotated.all_peers()))
            check.finish()
            self._mediate(request, annotated)
            if self.config.resilience.quarantine_enabled and len(self.quarantine):
                # filter after the cache layer: entries stay unfiltered
                # (and restore_peer still invalidates the peer's scope,
                # symmetric with suspicion, so downstream caches keyed
                # on the filtered reply cannot linger either)
                annotated = annotated.without_peers(self.quarantine.peers)
            span.set(peers=len(annotated.all_peers()))
            span.finish()
            self.send(request.requester, RouteReply(request.query_id, annotated))
            return
        # not responsible: discover the right super-peer via the backbone
        responsible = self.backbone_directory.get(schema_uri)
        if responsible is None and self.parent is not None and (
            request.hops < MAX_BACKBONE_HOPS
        ):
            # multi-layer hierarchy: escalate to the parent layer
            responsible = self.parent
        if responsible is None or request.hops >= MAX_BACKBONE_HOPS:
            # nobody reachable owns this schema: empty annotation,
            # constructed directly — no advertisement scan to run.  Not
            # cached: the backbone directory is shared state mutated
            # outside this peer, so a negative entry here could go
            # stale without any invalidation signal.  (The per-SON
            # empty-registry case IS cached negatively, one layer down
            # in RoutingIndex.route.)
            annotated = AnnotatedQueryPattern(request.pattern)
            span.set(peers=0)
            span.finish("unroutable")
            self.send(request.requester, RouteReply(request.query_id, annotated))
            return
        span.set(forwarded_to=responsible)
        span.finish()
        self.send(
            responsible,
            RouteRequest(
                request.query_id,
                request.pattern,
                request.requester,
                hops=request.hops + 1,
            ),
            # nest the next hop's route span under this one
            trace=span.context(),
        )

    # ------------------------------------------------------------------
    # mediation (Section 3.1: reformulation across articulations)
    # ------------------------------------------------------------------
    def _mediate(
        self, request: RouteRequest, annotated: AnnotatedQueryPattern
    ) -> None:
        """Extend the annotation with peers of articulated SONs.

        For every articulation whose source is the query's schema, the
        pattern is reformulated into the target vocabulary and routed
        over the target SON's registry; matching peers are annotated on
        the *original* pattern with their reformulated subqueries, so
        the generated plan ships each peer a query in its own terms.
        """
        schema_uri = request.pattern.schema.namespace.uri
        for articulation in self.articulations:
            if articulation.source.namespace.uri != schema_uri:
                continue
            reformulated = articulation.reformulate(request.pattern)
            if reformulated is None:
                continue
            target_uri = articulation.target.namespace.uri
            index = self.indices.get(target_uri)
            if index is None:
                continue
            target_annotated = index.route(reformulated)
            for original, mapped in zip(
                request.pattern.patterns, reformulated.patterns
            ):
                for annotation in target_annotated.annotations(mapped):
                    annotated.annotate(
                        original,
                        PeerAnnotation(
                            annotation.peer_id, annotation.rewritten, exact=False
                        ),
                    )
