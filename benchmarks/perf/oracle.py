"""Answer checking, outside the timed section.

The reference for every query answer is the centralized evaluator
(``repro.rql.evaluator.query``) over the union of the peers' bases, with
a final ``distinct`` to match the coordinator's set semantics — the
oracle of ``tests/difftest/harness.py``.  A distributed "no relevant
peers" error equals the empty reference table: advertisements are
derived from base content, so a query nobody advertises has no matches
in the merged base either.

``live-tcp`` answers are additionally compared with the in-sim twin of
the cluster (rows, error string, coverage).  ``sim-updates`` snapshots
the peers' bases and views after every revision: every answer is
compared with the centralized evaluator over the snapshot it was given
from, answers at a checkpoint revision also with a from-scratch twin
deployed from that snapshot, and after the last revision the peers'
bases must equal ``UpdateStream.final_shadows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.rdf.graph import Graph
from repro.rql.evaluator import query as centralized_query
from repro.systems import HybridSystem

from .workloads import Inputs, Op, Workload


@dataclass
class OpResult:
    """What one timed operation returned: the ``QueryResult`` of a
    query (``None`` for an update), or the harness-level failure —
    exception or live timeout — that ended it."""

    op: Op
    latency: float
    result: object = None
    error: Optional[str] = None


def merged_graph(bases: Iterable[Iterable]) -> Graph:
    """The union of the given bases' triples (the centralized database)."""
    merged = Graph()
    for triples in bases:
        merged.update(triples)
    return merged


def mismatch(result, expected) -> Optional[str]:
    """Why a ``QueryResult`` is not the reference table, or ``None``."""
    if result.error is not None:
        if "no relevant peers" in result.error and len(expected) == 0:
            return None
        return f"error: {result.error}"
    if result.coverage is not None and not result.coverage.is_complete:
        return "partial answer on a fault-free deployment"
    if result.table != expected:
        return f"{len(result.table)} rows, reference has {len(expected)}"
    return None


def _outcome(result) -> Tuple[Optional[str], object, object]:
    return (result.error, result.table, result.coverage)


class Oracle:
    """Reference answers for one run's inputs, computed lazily and once
    per distinct (revision, coordinator, text): epochs replay the same
    operations, so later epochs cost one table comparison per answer."""

    def __init__(self, workload: Workload, inputs: Inputs):
        self.workload = workload
        self.inputs = inputs
        self._schema = inputs.synthetic.schema
        #: revision -> merged bases at that revision (0 = as generated)
        self._merged: Dict[int, Graph] = {
            0: merged_graph(g.triples() for g in inputs.bases.values())
        }
        self._expected: Dict[Tuple[int, str], object] = {}
        #: revision -> twin deployment answering from that base state
        self._twins: Dict[int, HybridSystem] = {}
        self._twin_outcomes: Dict[Tuple[int, str, str], tuple] = {}

    def expected(self, text: str, revision: int = 0):
        key = (revision, text)
        if key not in self._expected:
            self._expected[key] = centralized_query(
                text, self._merged[revision], self._schema
            ).distinct()
        return self._expected[key]

    def failures(self, results: List[OpResult], deployment) -> List[str]:
        """One line per failed operation of an epoch: harness errors,
        oracle mismatches, twin divergences, a wrong end state."""
        if self.workload.live and 0 not in self._twins:
            self._twins[0] = self.workload.sim_twin(self.inputs)
        for revision, snapshot in getattr(deployment, "snapshots", {}).items():
            if revision not in self._merged:
                self._merged[revision] = merged_graph(t for t, _ in snapshot.values())
                if revision in self.inputs.checkpoints:
                    self._twins[revision] = self._scratch_twin(snapshot)
        failed: List[str] = []
        for index, outcome in enumerate(results):
            op = outcome.op
            if outcome.error is not None:
                failed.append(f"op {index} ({op.kind}): {outcome.error}")
                continue
            if op.kind != "query":
                continue
            result = outcome.result
            problem = mismatch(result, self.expected(op.text, op.revision))
            if problem is None and op.revision in self._twins:
                if _outcome(result) != self._twin_outcome(op):
                    problem = f"answer differs from the twin at revision {op.revision}"
            if problem is not None:
                failed.append(f"op {index} (query via {op.via}): {problem}")
        if self.inputs.stream is not None:
            failed.extend(self._final_state_failures(deployment))
        return failed

    def _twin_outcome(self, op: Op) -> tuple:
        key = (op.revision, op.via, op.text)
        if key not in self._twin_outcomes:
            twin = self._twins[op.revision]
            client = twin.add_client()
            query_id = client.submit(op.via, op.text)
            twin.run()
            self._twin_outcomes[key] = _outcome(client.result(query_id))
        return self._twin_outcomes[key]

    def _scratch_twin(self, snapshot) -> HybridSystem:
        """A fresh deployment of snapshotted bases and views: full
        active-schema re-derivation, cold caches."""
        twin = HybridSystem(self._schema, seed=self.inputs.seed)
        twin.add_super_peer("SP")
        for peer_id in self.inputs.peer_ids:
            triples, views = snapshot[peer_id]
            twin.add_peer(peer_id, Graph(triples), "SP", views=views)
        twin.run()
        return twin

    def _final_state_failures(self, deployment) -> List[str]:
        shadows = self.inputs.stream.final_shadows
        return [
            f"{peer_id}'s base differs from the update stream's end state"
            for peer_id in self.inputs.peer_ids
            if set(deployment.system.peers[peer_id].base.graph.triples())
            != set(shadows[peer_id].triples())
        ]
