"""Index-maintenance cost comparator (Section 4's closing claim).

"The cost of maintaining (XML or RDF) indices of entire peer bases is
important compared to the cost of maintaining peer active-schemas
(i.e., views)."

Two maintenance policies react to the same update stream against a
peer base:

* **full data index** (RDFPeers / path-index style) — every triple
  insertion or deletion must be reflected at the index holder, costing
  one update message per change;
* **active-schema** (SQPeer) — an advertisement is re-sent only when
  the base's *intensional footprint* changes, i.e. a property becomes
  populated or empties out.  Bulk extensional churn is free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..rdf.graph import Graph
from ..rdf.schema import Schema
from ..rdf.terms import Namespace
from ..rdf.triple import Triple
from ..rvl.active_schema import ActiveSchema


@dataclass
class MaintenanceCost:
    """Messages/bytes a maintenance policy spends on an update stream."""

    update_messages: int = 0
    update_bytes: int = 0

    def add(self, messages: int, bytes_: int) -> None:
        self.update_messages += messages
        self.update_bytes += bytes_


#: Approximate wire size of one triple-level index update.
TRIPLE_UPDATE_BYTES = 96


class FullDataIndexMaintainer:
    """Every extensional change ships to the index."""

    def __init__(self):
        self.cost = MaintenanceCost()

    def on_add(self, triple) -> None:
        self.cost.add(1, TRIPLE_UPDATE_BYTES)

    def on_remove(self, triple) -> None:
        self.cost.add(1, TRIPLE_UPDATE_BYTES)


class ActiveSchemaMaintainer:
    """Only intensional-footprint changes ship a new advertisement.

    Args:
        graph: The peer base being maintained (mutated by the caller).
        schema: The community schema.
        peer_id: The advertising peer.
    """

    def __init__(self, graph: Graph, schema: Schema, peer_id: str):
        self.graph = graph
        self.schema = schema
        self.peer_id = peer_id
        self.cost = MaintenanceCost()
        self._advertised = self._footprint()

    def _footprint(self) -> frozenset:
        return frozenset(
            prop
            for prop in self.schema.properties
            if next(self.graph.triples(None, prop, None), None) is not None
        )

    def refresh(self) -> bool:
        """Re-derive the footprint; send a new advertisement if it
        changed.  Returns True when an advertisement was sent."""
        current = self._footprint()
        if current == self._advertised:
            return False
        self._advertised = current
        advertisement = ActiveSchema.from_base(self.graph, self.schema, self.peer_id)
        self.cost.add(1, advertisement.size_bytes())
        return True


@dataclass
class ChurnResult:
    """Outcome of one synthetic churn run."""

    updates_applied: int
    full_index_cost: MaintenanceCost
    active_schema_cost: MaintenanceCost

    @property
    def message_ratio(self) -> float:
        """full-index messages per active-schema message (>= 1 expected)."""
        denominator = max(1, self.active_schema_cost.update_messages)
        return self.full_index_cost.update_messages / denominator


def run_churn(
    graph: Graph,
    schema: Schema,
    updates: int,
    peer_id: str = "P",
    add_fraction: float = 0.7,
    instance_namespace: str = "http://example.org/churn#",
    seed: int = 0,
) -> ChurnResult:
    """Apply a random update stream and account both policies.

    Adds assert random statements of random schema properties; removes
    delete random existing statements.  Both maintainers observe every
    change; the active-schema maintainer refreshes after each.
    """
    if updates < 0:
        raise ValueError("updates must be >= 0")
    rng = random.Random(seed)
    data = Namespace(instance_namespace)
    properties = sorted(schema.properties)
    full_index = FullDataIndexMaintainer()
    active = ActiveSchemaMaintainer(graph, schema, peer_id)
    # the statements removals draw from, in an order no hash seed moves
    present = sorted(graph, key=repr)
    for step in range(updates):
        if rng.random() < add_fraction or not present:
            prop = rng.choice(properties)
            subject = data[f"s{rng.randrange(max(1, updates // 2))}"]
            obj = data[f"o{rng.randrange(max(1, updates // 2))}"]
            triple = Triple(subject, prop, obj)
            if graph.add_triple(triple):
                present.append(triple)
            full_index.on_add(triple)
        else:
            triple = present.pop(rng.randrange(len(present)))
            graph.remove_triple(triple)
            full_index.on_remove(triple)
        active.refresh()
    return ChurnResult(updates, full_index.cost, active.cost)
