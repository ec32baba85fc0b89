"""Super-peers: routing servers of the hybrid architecture (Section 3.1).

A super-peer collects the active-schemas of the simple peers clustered
under it (one cluster per community schema / SON) in its
:class:`~repro.peers.son.SONRegistry`, answers
:class:`~repro.peers.protocol.RouteRequest` messages by routing over
it, and forwards requests for schemas it is not responsible for across
the super-peer backbone.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

from ..config import DEFAULT_CONFIG, PeerConfig
from ..core.annotations import AnnotatedQueryPattern, PeerAnnotation
from ..core.cost import Statistics
from ..errors import PeerError
from ..livedata.updates import AdvertiseDelta
from ..mappings.articulation import Articulation
from ..net.message import Message
from ..rdf.schema import Schema
from ..resilience.detector import FailureDetector
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
from .son import SONRegistry

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
        #: what this node knows of its SONs: per-SON routing indices,
        #: quarantine verdicts, the durable log of both
        self.sons = SONRegistry(self, self.schemas.values())
        self.articulations: List[Articulation] = []
        self._route_queue: Deque[Message] = deque()
        self._route_service_busy = False

    def join(self, network) -> None:
        super().join(network)
        self.sons.join(network)

    def load(self) -> Dict[str, int]:
        return {
            **super().load(),
            "quarantined_peers": len(self.sons.quarantine),
            "queued_route_requests": len(self._route_queue),
        }

    # ------------------------------------------------------------------
    # liveness / suspicion
    # ------------------------------------------------------------------
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
            on_suspect=self.sons.suspect,
            on_restore=self.sons.restore,
        )
        for advertisement in self.sons.advertisements():
            detector.watch(advertisement.peer_id)
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
                self.sons.hold(schema)
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
        self, advertisement: ActiveSchema, rejoin: bool = False
    ) -> None:
        """Register (or refresh) one clustered peer's advertisement.

        ``rejoin`` marks a peer coming back after a crash/departure: it
        is rehabilitated and the advertisement is rebroadcast to the
        SON's other members so coordinator-local quarantines lift too.
        """
        peer_id = advertisement.peer_id
        previous = self.sons.add(advertisement)
        if self.network is not None and (rejoin or previous is None):
            self.network.metrics.count("rejoins" if rejoin else "joins")
            self.network.emit_event(
                "rejoin" if rejoin else "join", peer=peer_id, via=self.peer_id
            )
        self._heard_from(peer_id)
        if rejoin:
            # tell the SON's other members their fellow is back.  The
            # rejoin travels the message plane, so coordinator
            # quarantines lift identically over the simulated and the
            # live transport
            for member in sorted(self.sons.members(advertisement.schema_uri)):
                if member != peer_id:
                    self.send(member, Advertise(advertisement, rejoin=True))

    def _heard_from(self, peer_id: str) -> None:
        """A fresh advertisement is proof of life."""
        self.sons.restore(peer_id)
        if self.failure_detector is not None:
            self.failure_detector.watch(peer_id)
            self.failure_detector.beat(peer_id)

    def handle_AdvertiseDelta(self, message: Message) -> None:
        """A clustered peer's active-schema changed *by this much*:
        patch the registered advertisement and refile it.  Refiling
        goes through the full-refresh path —
        :meth:`~repro.core.routing_index.RoutingIndex.add` rebuckets
        the advertisement and invalidates exactly the affected
        routing-cache scope — so delta and full refreshes are
        behaviourally identical, only cheaper on the wire."""
        delta: AdvertiseDelta = message.payload
        if delta.stats is not None and self.statistics is not None:
            self.statistics.fold_summary(delta.stats)
        if self.sons.patch(delta) is None:
            # no registered baseline to patch: pull the full
            # advertisement instead of guessing
            self.send(delta.peer_id, AdvertisementRequest(self.peer_id, 1))
            return
        self._heard_from(delta.peer_id)
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
        departed = message.payload.peer_id
        self.sons.remove_peer(departed)
        if self.failure_detector is not None:
            self.failure_detector.unwatch(departed)

    def handle_AdvertisementRequest(self, message: Message) -> None:
        """Pull: reply with every advertisement in the registry.

        Simple peers use this for neighbourhood discovery; deployment
        launchers use it to observe when a live cluster's advertisement
        push has settled."""
        request: AdvertisementRequest = message.payload
        schemas = tuple(self.sons.advertisements())
        self.send(request.requester, AdvertisementReply(schemas, self.peer_id))

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
                registered=len(self.sons.members(schema_uri)),
            )
            annotated = self.sons.route(request.pattern)
            check.set(peers=len(annotated.all_peers()))
            check.finish()
            self._mediate(request, annotated)
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
            target_annotated = self.sons.route(reformulated)
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
