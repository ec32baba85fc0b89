"""Statistics and the cost model for distributed plan optimisation.

Section 2.5 names three inputs to the optimisation choice: statistics
about the **communication cost** between peers (connection speed), the
**expected size of peers' query results**, and the **processing load**
of peers (free "slots").  :class:`Statistics` stores exactly those
three, and :class:`CostModel` combines them into per-plan estimates of
bytes shipped, messages sent and completion time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..rdf.terms import URI
from .algebra import Hole, Join, PlanNode, Scan, Union

#: Estimated wire bytes per binding-table row (term renderings + overhead).
DEFAULT_ROW_BYTES = 64
#: Default join selectivity when no statistics narrow it down.
DEFAULT_JOIN_SELECTIVITY = 0.01
#: Wire size of a subplan/control message.
CONTROL_MESSAGE_BYTES = 256


@dataclass(frozen=True)
class StatSummary:
    """A peer's compact statistics advertisement.

    Rides alongside the active-schema advertisement (Section 2.5's
    "expected size of peers' query results"): per-predicate row counts
    plus distinct endpoint counts, from which the receiving super-peer
    derives cardinalities and join selectivities.

    Attributes:
        peer_id: The advertising peer.
        predicates: ``(property URI value, rows, distinct subjects,
            distinct objects)`` per non-empty predicate.
    """

    peer_id: str
    predicates: Tuple[Tuple[str, int, int, int], ...] = ()

    def size_bytes(self) -> int:
        return 32 + 24 * len(self.predicates)


def harvest_stat_summary(graph, schema, peer_id: str) -> StatSummary:
    """Derive a peer's stat summary from its own base.

    Counts are RDFS-entailed (the same :class:`~repro.rdf.inference.
    InferredView` semantics queries see), so the advertised cardinality
    of ``prop1`` includes a base that only stores ``prop4 ⊑ prop1``
    statements — Figure 2's P4 advertises non-zero ``prop1`` rows.
    """
    from ..rdf.inference import InferredView

    view = InferredView(graph, schema)
    predicates = []
    for prop in sorted(schema.properties, key=lambda p: p.value):
        rows = 0
        subjects = set()
        objects = set()
        for triple in view.triples(None, prop, None):
            rows += 1
            subjects.add(triple.subject)
            objects.add(triple.object)
        if rows:
            predicates.append((prop.value, rows, len(subjects), len(objects)))
    return StatSummary(peer_id, tuple(predicates))


class Statistics:
    """Per-peer statistics the optimiser consumes.

    Args:
        default_cardinality: Fallback result size for (peer, property)
            pairs that were never recorded.
        default_link_cost: Fallback per-byte transfer cost.
        join_selectivity: Fraction of the cross product surviving a join.
    """

    def __init__(
        self,
        default_cardinality: int = 100,
        default_link_cost: float = 1.0,
        join_selectivity: float = DEFAULT_JOIN_SELECTIVITY,
        row_bytes: int = DEFAULT_ROW_BYTES,
    ):
        self.default_cardinality = default_cardinality
        self.default_link_cost = default_link_cost
        self.join_selectivity = join_selectivity
        self.row_bytes = row_bytes
        #: bumped on every recorded change; plan caches key on it so a
        #: cached plan is only reused while its cost inputs still hold
        self.version = 0
        self._cardinality: Dict[Tuple[str, URI], int] = {}
        self._link_cost: Dict[Tuple[str, str], float] = {}
        self._load: Dict[str, int] = {}
        self._slots: Dict[str, int] = {}
        #: property → (max distinct subjects, max distinct objects)
        #: across folded peer summaries; feeds :meth:`selectivity`
        self._distinct: Dict[URI, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def set_cardinality(self, peer_id: str, prop: URI, rows: int) -> None:
        """Record that ``peer_id`` returns ``rows`` bindings for ``prop``."""
        if self._cardinality.get((peer_id, prop)) != rows:
            self.version += 1
        self._cardinality[(peer_id, prop)] = rows

    def set_link_cost(self, a: str, b: str, cost: float) -> None:
        """Record the per-byte cost of the (symmetric) link ``a — b``."""
        if self._link_cost.get((a, b)) != cost:
            self.version += 1
        self._link_cost[(a, b)] = cost
        self._link_cost[(b, a)] = cost

    def set_load(self, peer_id: str, load: int, slots: int = 1) -> None:
        """Record a peer's current processing load and its slot count."""
        if (self._load.get(peer_id), self._slots.get(peer_id)) != (load, max(1, slots)):
            self.version += 1
        self._load[peer_id] = load
        self._slots[peer_id] = max(1, slots)

    def fold_summary(self, summary: StatSummary) -> None:
        """Fold a peer's advertised :class:`StatSummary` in: observed
        cardinalities replace the static defaults, and distinct counts
        sharpen the per-predicate join selectivity."""
        for value, rows, distinct_subjects, distinct_objects in summary.predicates:
            prop = URI(value)
            self.set_cardinality(summary.peer_id, prop, rows)
            previous = self._distinct.get(prop, (0, 0))
            merged = (
                max(previous[0], distinct_subjects),
                max(previous[1], distinct_objects),
            )
            if merged != previous:
                self.version += 1
            self._distinct[prop] = merged

    def fold_link_observations(
        self, observations: Mapping[Tuple[str, str], Tuple[float, float]]
    ) -> None:
        """Fold observed per-link (mean delay, mean bytes) pairs — from
        :meth:`~repro.metrics.collectors.MetricSet.link_observations` —
        into per-byte link costs, replacing the static default.

        Costs are rounded to three significant digits before recording
        so minor drift of the observed means between folds does not churn
        :attr:`version` (and with it every plan cache).
        """
        for (a, b), (mean_delay, mean_bytes) in sorted(observations.items()):
            if a == b:
                continue
            cost = mean_delay / max(mean_bytes, 1.0)
            self.set_link_cost(a, b, float(f"{cost:.3g}"))

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def cardinality(self, peer_id: str, prop: URI) -> int:
        return self._cardinality.get((peer_id, prop), self.default_cardinality)

    def selectivity(self, prop: URI) -> float:
        """Join selectivity of a predicate: ``1 / max(distinct
        subjects, distinct objects)`` when a summary supplied the
        distinct counts, else the static default — so with no stats
        folded the model is numerically identical to the rule-based
        era."""
        distinct = self._distinct.get(prop)
        if not distinct:
            return self.join_selectivity
        denominator = max(distinct)
        return 1.0 / denominator if denominator else self.join_selectivity

    def link_cost(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        return self._link_cost.get((a, b), self.default_link_cost)

    def load_factor(self, peer_id: str) -> float:
        """Queueing penalty multiplier: 1 + load/slots."""
        load = self._load.get(peer_id, 0)
        slots = self._slots.get(peer_id, 1)
        return 1.0 + load / slots

    def known_peers(self) -> Iterable[str]:
        return sorted({p for p, _ in self._cardinality} | set(self._load))


class CostEstimate:
    """A plan cost breakdown."""

    __slots__ = ("bytes_shipped", "messages", "time")

    def __init__(self, bytes_shipped: float, messages: int, time: float):
        object.__setattr__(self, "bytes_shipped", bytes_shipped)
        object.__setattr__(self, "messages", messages)
        object.__setattr__(self, "time", time)

    def __setattr__(self, name, val):
        raise AttributeError("CostEstimate is immutable")

    @property
    def total(self) -> float:
        """The scalar the optimiser compares: time-weighted bytes plus
        a fixed charge per message."""
        return self.time + self.messages * 0.1

    def __repr__(self) -> str:
        return (
            f"CostEstimate(bytes={self.bytes_shipped:.0f}, "
            f"messages={self.messages}, time={self.time:.2f})"
        )


class CostModel:
    """Estimates plan cardinalities and execution costs.

    Args:
        stats: The statistics store.
    """

    def __init__(self, stats: Optional[Statistics] = None):
        self.stats = stats or Statistics()

    # ------------------------------------------------------------------
    # cardinality estimation
    # ------------------------------------------------------------------
    def scan_cardinality(self, scan: Scan) -> float:
        """Expected rows a scan returns from its peer.

        A composite scan is a local join of its patterns: product of
        the per-pattern cardinalities scaled by the join selectivity.
        """
        result = 1.0
        for index, pattern in enumerate(scan.patterns()):
            prop = pattern.schema_path.property
            rows = self.stats.cardinality(scan.peer_id, prop)
            if index == 0:
                result = rows
            else:
                result = result * rows * self.stats.selectivity(prop)
        return result

    def _plan_selectivity(self, plan: PlanNode) -> float:
        """Selectivity applied when a subplan joins in: the sharpest
        (smallest) per-predicate selectivity among its scans' properties
        — the most selective join predicate dominates.  Falls back to
        the static default when no summary narrowed anything down."""
        best: Optional[float] = None
        for node in plan.walk():
            if not isinstance(node, Scan):
                continue
            for pattern in node.patterns():
                s = self.stats.selectivity(pattern.schema_path.property)
                best = s if best is None else min(best, s)
        return self.stats.join_selectivity if best is None else best

    def cardinality(self, plan: PlanNode) -> float:
        """Expected result rows of a plan node."""
        if isinstance(plan, Scan):
            return self.scan_cardinality(plan)
        if isinstance(plan, Hole):
            return 0.0
        if isinstance(plan, Union):
            return sum(self.cardinality(c) for c in plan.children())
        if isinstance(plan, Join):
            result = None
            for child in plan.children():
                rows = self.cardinality(child)
                if result is None:
                    result = rows
                else:
                    result = result * rows * self._plan_selectivity(child)
            return result or 0.0
        raise TypeError(f"unknown plan node {type(plan).__name__}")

    # ------------------------------------------------------------------
    # plan cost (all intermediate results shipped to one coordinator)
    # ------------------------------------------------------------------
    def plan_cost(self, plan: PlanNode, coordinator: str) -> CostEstimate:
        """Cost of executing a plan with every scan result shipped to
        ``coordinator`` and every inner operator evaluated there
        (the data-shipping baseline; shipping decisions refine this in
        :mod:`repro.core.shipping`).

        The unit of shipping is the destination: all scans of one
        remote peer travel in one subplan message and come back in one
        result stream, so each distinct remote peer costs two messages
        and one control message's bytes, whatever it scans.
        """
        rows_at: Dict[str, float] = {}
        for node in plan.walk():
            if isinstance(node, Scan):
                rows = rows_at.get(node.peer_id, 0.0) + self.scan_cardinality(node)
                rows_at[node.peer_id] = rows
        bytes_shipped = 0.0
        messages = 0
        time = 0.0
        for peer_id, rows in rows_at.items():
            payload = rows * self.stats.row_bytes
            bytes_shipped += payload
            if peer_id != coordinator:
                messages += 2  # subplans out + results back
            link = self.stats.link_cost(peer_id, coordinator)
            transfer = (payload + CONTROL_MESSAGE_BYTES) * link
            processing = rows * 0.001 * self.stats.load_factor(peer_id)
            time = max(time, transfer + processing)  # peers run in parallel
        join_rows = self.cardinality(plan)
        time += join_rows * 0.001 * self.stats.load_factor(coordinator)
        return CostEstimate(bytes_shipped, messages, time)

    def max_intermediate_rows(self, plan: PlanNode) -> float:
        """The largest operator input anywhere in the plan.

        This is the quantity the paper's Figure 4 discussion targets:
        "pushing joins below the unions produces smaller intermediate
        results" — after distribution, no join consumes a full union.
        """
        largest = 0.0
        for node in plan.walk():
            for child in node.children():
                largest = max(largest, self.cardinality(child))
        return largest

    def intermediate_result_rows(self, plan: PlanNode) -> float:
        """Total rows crossing the network: sum over scan leaves.

        This is the quantity Figure 4's heuristic minimises ("pushing
        joins below the unions produces smaller intermediate results").
        """
        return sum(
            self.scan_cardinality(node)
            for node in plan.walk()
            if isinstance(node, Scan)
        )
