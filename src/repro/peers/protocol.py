"""Peer-level protocol payloads.

These ride inside :class:`~repro.net.message.Message` envelopes.
Channel-level packets (subplans, data) live in
:mod:`repro.channels.packets`; the payloads here cover query
submission, routing, advertisement push/pull, departure and ad-hoc
partial-plan forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..core.algebra import PlanNode, count_scans
from ..core.annotations import AnnotatedQueryPattern
from ..core.cost import StatSummary
from ..execution.encoded import EncodedTable
from ..resilience.partial import Coverage
from ..rql.bindings import BindingTable
from ..rql.pattern import QueryPattern
from ..rvl.active_schema import ActiveSchema


@dataclass(frozen=True)
class QuerySubmit:
    """Client → simple peer: evaluate this RQL query.

    ``max_peers`` / ``limit`` carry the completeness/load trade-off of
    Section 5: bound the per-pattern broadcast and the answer size.
    ``resubmits``: the client resubmits on silence, so the coordinator
    keeps the answer to serve the duplicate (and only then).
    """

    query_id: str
    text: str
    reply_to: str
    max_peers: Optional[int] = None
    limit: Optional[int] = None
    order_by: Optional[str] = None
    descending: bool = False
    resubmits: bool = False

    def size_bytes(self) -> int:
        return 64 + len(self.text)


@dataclass(frozen=True)
class QueryResult:
    """Coordinator → client: the final answer (or an error).

    ``coverage`` is set when the answer is a graceful degradation: the
    coordinator could not repair the plan for every path pattern and
    returns what was answerable, annotated with exactly which patterns
    made it (:class:`repro.resilience.partial.Coverage`).

    ``table`` crosses the link packed, like every binding table; the
    client materialises it on arrival and keeps the result with a term
    :class:`~repro.rql.bindings.BindingTable` there, which is what
    every reader of a client's results sees.
    """

    query_id: str
    table: Union[EncodedTable, BindingTable, None]
    error: Optional[str] = None
    coverage: Optional[Coverage] = None

    @property
    def is_partial(self) -> bool:
        return self.coverage is not None and not self.coverage.is_complete

    def size_bytes(self) -> int:
        size = 64 + (
            self.table.size_bytes() if self.table is not None else len(self.error or "")
        )
        if self.coverage is not None:
            size += self.coverage.size_bytes()
        return size


@dataclass(frozen=True)
class QueryShed:
    """Coordinator → client: the query was refused by admission control.

    The coordinator's pending-query queue was full, so instead of
    silently degrading every in-flight query it sheds this one with a
    ``retry_after`` hint (virtual time) — the client (or the workload
    driver on its behalf) may resubmit after backing off.
    """

    query_id: str
    retry_after: float
    from_peer: str = ""

    def size_bytes(self) -> int:
        return 72


@dataclass(frozen=True)
class RouteBusy:
    """Super-peer → simple peer: the routing service is saturated.

    The super-peer's route-request queue was full; the requester should
    re-send its :class:`RouteRequest` after ``retry_after`` (or give up
    and degrade when its shed budget runs out).
    """

    query_id: str
    retry_after: float
    from_peer: str = ""

    def size_bytes(self) -> int:
        return 72


@dataclass(frozen=True)
class RouteRequest:
    """Simple peer → super-peer: annotate this query pattern
    (hybrid architecture, first evaluation phase of Section 3.1)."""

    query_id: str
    pattern: QueryPattern
    requester: str
    hops: int = 0

    def size_bytes(self) -> int:
        return 96 + 48 * len(self.pattern)


@dataclass(frozen=True)
class RouteReply:
    """Super-peer → simple peer: the annotated query pattern."""

    query_id: str
    annotated: AnnotatedQueryPattern

    def size_bytes(self) -> int:
        peers = sum(
            len(self.annotated.peers_for(p)) for p in self.annotated.query_pattern
        )
        return 96 + 32 * peers


@dataclass(frozen=True)
class Advertise:
    """Peer → super-peer / neighbour: my active-schema (push).

    ``rejoin`` marks the push of a peer coming *back* (crash recovery
    or re-entry after a departure): holders rehabilitate the peer —
    lift its quarantine, invalidate its routing-cache scope — and
    super-peers rebroadcast the advertisement to the SON's other
    members so coordinator-local quarantines lift too.  Initial joins
    never set it, keeping the seed protocol byte-identical.

    ``stats`` carries the peer's :class:`~repro.core.cost.StatSummary`
    when cost-based planning is on; by default it is absent, keeping
    the advertisement wire format byte-identical to the seed.
    """

    active_schema: ActiveSchema
    rejoin: bool = False
    stats: Optional[StatSummary] = None

    def size_bytes(self) -> int:
        size = self.active_schema.size_bytes()
        if self.stats is not None:
            size += self.stats.size_bytes()
        return size


@dataclass(frozen=True)
class AdvertisementRequest:
    """Peer → neighbour: send me your active-schema(s) (pull).

    ``depth`` > 1 asks the neighbour to forward the request onward,
    implementing the 2-depth / 3-depth neighbourhood discovery of
    Section 3.2.
    """

    requester: str
    depth: int = 1

    def size_bytes(self) -> int:
        return 64


@dataclass(frozen=True)
class AdvertisementReply:
    """Neighbour → requester: the advertisements it knows at this depth."""

    schemas: Tuple[ActiveSchema, ...]
    from_peer: str

    def size_bytes(self) -> int:
        return 32 + sum(s.size_bytes() for s in self.schemas)


@dataclass(frozen=True)
class Goodbye:
    """Departing peer → advertisement holders: forget me.

    "Each peer base can join and leave the network at will" (Section
    1): a leaving peer tells the parties holding its advertisement (its
    super-peer in the hybrid architecture, its neighbours in the ad-hoc
    one), so routing stops annotating it *before* queries fail over to
    it.
    """

    peer_id: str

    def size_bytes(self) -> int:
        return 48 + len(self.peer_id)


@dataclass(frozen=True)
class DelegatedResult:
    """Completing peer → query root: the outcome of a forwarded plan.

    Carries the *raw* (unprojected) bindings, packed — the root interns
    them into its own id space and applies the original query's
    filters and projection; or an error when the
    receiving peer could not fill the plan's holes either.

    ``token`` identifies the logical result so the root's outstanding-
    delegation accounting survives duplicate deliveries.
    """

    query_id: str
    table: Optional[EncodedTable]
    from_peer: str
    error: Optional[str] = None
    token: str = ""

    def size_bytes(self) -> int:
        if self.table is None:
            return 96 + len(self.error or "")
        return 96 + self.table.size_bytes()


@dataclass(frozen=True)
class PartialPlan:
    """Peer → peer able to answer part of the plan: continue routing.

    Carries a plan with holes plus coordination context (ad-hoc
    interleaved routing/processing, Section 3.2).  ``visited`` prevents
    forwarding loops; ``token`` identifies the logical forward so a
    receiver can tell a duplicate delivery (same token: already
    answered, drop) from a fresh forward round (new token: decline).
    """

    query_id: str
    plan: PlanNode
    pattern: QueryPattern
    root_peer: str
    reply_to: str
    visited: Tuple[str, ...] = ()
    conditions_text: str = ""
    token: str = ""

    def size_bytes(self) -> int:
        return 160 + 96 * count_scans(self.plan) + 16 * len(self.visited)
