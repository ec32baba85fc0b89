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

from typing import Iterable, Optional, Sequence

from ..config import DEFAULT_CONFIG, PeerConfig
from ..core.cost import Statistics
from ..errors import PeerError
from ..net.message import Message
from ..net.simulator import Network
from ..resilience import RESILIENCE_OFF, HeartbeatEmitter
from ..peers.base import PeerBase
from ..peers.protocol import Advertise, RouteBusy, RouteReply, RouteRequest
from ..peers.coordinator import PendingQuery
from ..peers.simple import SimplePeer
from ..peers.super import SuperPeer
from ..rdf.graph import Graph
from ..rdf.schema import Schema
from .deployment import Deployment

#: RouteBusy back-offs tolerated per routing round before the query
#: gives up on its overloaded super-peer
ROUTE_BUSY_BUDGET = 5


class HybridPeer(SimplePeer):
    """A simple peer in the hybrid architecture.

    Args:
        home_super_peer: The super-peer this peer clusters under (the
            one responsible for its community schema's SON).
    """

    def __init__(self, peer_id: str, base: Optional[PeerBase] = None,
                 home_super_peer: str = "", home_super_peers=None,
                 statistics: Optional[Statistics] = None, secondary_bases=(),
                 config: PeerConfig = DEFAULT_CONFIG):
        super().__init__(peer_id, base, statistics, secondary_bases, config)
        if not home_super_peer:
            raise PeerError(f"hybrid peer {peer_id} needs a home super-peer")
        self.home_super_peer = home_super_peer
        #: schema URI -> super-peer, for peers in several SONs
        #: ("a simple-peer can be connected to multiple super-peers")
        self.home_super_peers = dict(home_super_peers or {})

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
        pending.routing_span = self._require_network().tracer.stage(
            "routing",
            self.peer_id,
            pending.span.context(),
            mode="super-peer",
            target=target,
        )
        self._request_route(pending, target)
        if self.config.resilience.routing_retry is not None:
            self._arm_routing_timeout(
                pending.query_id, target, pending.routing_attempts, 1
            )

    def _request_route(self, pending: PendingQuery, target: str) -> None:
        self.send(
            target,
            RouteRequest(pending.query_id, pending.pattern, self.peer_id),
            trace=pending.routing_span.context(),
        )

    def _arm_routing_timeout(
        self, query_id: str, target: str, round_no: int, attempt: int
    ) -> None:
        """Deadline for one RouteRequest attempt: resend with backoff
        while the budget lasts, then give up on the routing phase (the
        super-peer is unreachable — degrade or error)."""
        network = self._require_network()
        retry = self.config.resilience.routing_retry

        def check() -> None:
            pending = self.coordinator.get(query_id)
            if pending is None or not pending.awaiting_routing:
                return
            if pending.routing_attempts != round_no:
                return  # a replan already started a newer routing round
            if retry.attempts_left(attempt + 1):
                network.metrics.count("retries")
                pending.routing_span.annotate(f"retry attempt={attempt + 1}")
                self._request_route(pending, target)
                self._arm_routing_timeout(query_id, target, round_no, attempt + 1)
            else:
                self.sons.suspect(target)
                pending.routing_span.finish("timeout")
                self.coordinator.give_up(pending, f"routing via {target} timed out")

        network.call_later(retry.timeout(attempt), check)

    def handle_RouteBusy(self, message: Message) -> None:
        """The super-peer's routing service shed our request: back off
        and re-send, up to :data:`ROUTE_BUSY_BUDGET` times per routing
        round, then give up (degrade to a partial answer or error)."""
        busy: RouteBusy = message.payload
        pending = self.coordinator.get(busy.query_id)
        if pending is None or not pending.awaiting_routing:
            return  # answered or superseded in the meantime
        pending.routing_busy_retries += 1
        if pending.routing_busy_retries > ROUTE_BUSY_BUDGET:
            pending.routing_span.finish("busy")
            self.coordinator.give_up(
                pending, f"routing via {message.src} is overloaded"
            )
            return
        network = self._require_network()
        network.metrics.count("retries")
        pending.routing_span.annotate(
            f"route busy: backing off {busy.retry_after:g}"
        )
        round_no = pending.routing_attempts
        target = message.src

        def resend() -> None:
            current = self.coordinator.get(busy.query_id)
            if current is None or not current.awaiting_routing:
                return
            if current.routing_attempts != round_no:
                return  # a replan already started a newer routing round
            self._request_route(current, target)

        network.call_later(busy.retry_after, resend)

    def handle_RouteReply(self, message: Message) -> None:
        """Phase 2: generate the plan and execute it."""
        reply: RouteReply = message.payload
        pending = self.coordinator.get(reply.query_id)
        if pending is None:
            return  # stale reply for an already-answered query
        if not pending.awaiting_routing:
            return  # duplicate delivery of a reply already acted on
        pending.awaiting_routing = False
        pending.routing_span.set(peers=len(reply.annotated.all_peers()))
        pending.routing_span.finish()
        self.coordinator.compile(pending, reply.annotated)


class HybridSystem(Deployment):
    """Builder/harness for a hybrid deployment.

    Example:
        >>> system = HybridSystem(schema)                  # doctest: +SKIP
        >>> system.add_super_peer("SP1")                   # doctest: +SKIP
        >>> system.add_peer("P1", graph, "SP1")            # doctest: +SKIP
        >>> table = system.query("P1", "SELECT ...")       # doctest: +SKIP
    """

    def _start_liveness(self, node) -> None:
        """Heartbeats from every simple peer to its advertisement
        holders, and a failure detector per super-peer over its cluster
        members."""
        resilience = self.config.resilience
        if resilience == RESILIENCE_OFF:
            return
        if isinstance(node, SuperPeer):
            node.watch_cluster(
                resilience.suspicion_timeout, resilience.heartbeat_interval
            )
        else:
            self.heartbeat_emitters[node.peer_id] = HeartbeatEmitter(
                node,
                node._advertisement_targets(),
                interval=resilience.heartbeat_interval,
            )

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
            statistics=self.statistics,
            config=self.config,
        )
        super_peer.join(self.network)
        self.super_peers[peer_id] = super_peer
        self._start_liveness(super_peer)
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
            config=self.config,
        )
        self._admit_peer(peer)
        return peer

    @classmethod
    def from_scenario(
        cls,
        scenario,
        seed: int = 0,
        config: PeerConfig = DEFAULT_CONFIG,
        observability: bool = True,
    ) -> "HybridSystem":
        """Build Figure 6's deployment from a
        :class:`~repro.workloads.paper.HybridScenario`."""
        system = cls(
            scenario.schema, seed=seed, config=config, observability=observability
        )
        for super_id in scenario.super_peers:
            system.add_super_peer(super_id)
        for peer_id in scenario.simple_peers:
            system.add_peer(
                peer_id, scenario.bases[peer_id], scenario.home_super_peer[peer_id]
            )
        return system
