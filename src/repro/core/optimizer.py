"""Compile-time plan optimisation (paper Section 2.5, Figure 4).

Three rewrites are applied, in the paper's order:

1. **Distribution of joins and unions** — rewrite
   ``⋈(∪(Q11..Q1n), ∪(Q21..Q2m))`` into
   ``∪(⋈(Q11,Q21), ⋈(Q11,Q22), ..., ⋈(Q1n,Q2m))``.  The paper applies
   it heuristically when the join result is expected to be smaller
   than its inputs; pass a :class:`~repro.core.cost.CostModel` to get
   that guard, or none to always distribute (Figure 4's Plan 2).

2. **Transformation Rule 1** — ``⋈(Q1@Pi, ..., Qn@Pi)`` where every
   input lives at the same peer becomes one composite subquery
   ``Q@Pi`` evaluated entirely at that peer.

3. **Transformation Rule 2** — ``⋈(⋈(QP, Q1@Pi), Q2@Pi)`` becomes
   ``⋈(QP, Q@Pi)``: the two same-peer inputs of nested joins merge.

Rules 2 and 3 are implemented together on the flattened n-ary join
form: within any join, all scan inputs at the same peer merge into one
composite scan (Figure 4's Plan 3, which pushes the prop1⋈prop2 join
to peers P1 and P4).
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from .algebra import (
    Hole,
    Join,
    PlanNode,
    Scan,
    Union,
    flatten,
    join_of,
    union_of,
)
from .cost import CostModel

#: Safety bound on the number of join terms produced by distribution.
MAX_DISTRIBUTED_TERMS = 4096


class OptimizationTrace:
    """The sequence of plans an optimisation pass went through.

    Attributes:
        steps: ``(rule_name, plan)`` pairs, starting with
            ``("input", original_plan)``.
    """

    def __init__(self, plan: PlanNode):
        self.steps: List[Tuple[str, PlanNode]] = [("input", plan)]
        #: set by the cost-based pass: the chosen plan's estimated cost
        #: and the rule-based plan's (the rejected alternative) — what
        #: the ``optimize.cost`` trace span exposes
        self.cost_decision: Optional[dict] = None

    def record(self, rule: str, plan: PlanNode) -> None:
        if plan != self.steps[-1][1]:
            self.steps.append((rule, plan))

    @property
    def result(self) -> PlanNode:
        return self.steps[-1][1]

    def __iter__(self):
        return iter(self.steps)

    def __str__(self) -> str:
        return "\n".join(f"{rule:>24}: {plan.render()}" for rule, plan in self.steps)


def distribute_joins_over_unions(
    plan: PlanNode,
    cost_model: Optional[CostModel] = None,
    max_terms: int = MAX_DISTRIBUTED_TERMS,
) -> PlanNode:
    """Push joins below unions (Section 2.5's algebraic equivalence).

    With a cost model, the rewrite is applied only when the expected
    join result is smaller than any of its union inputs — the paper's
    "beneficial" condition.  Without one it is applied unconditionally.
    The rewrite is skipped when it would exceed ``max_terms`` join
    combinations.
    """
    return _distribute(flatten(plan), cost_model, max_terms)


def _distribute(
    plan: PlanNode, cost_model: Optional[CostModel], max_terms: int
) -> PlanNode:
    """:func:`distribute_joins_over_unions` of a flat plan: its
    children are flat already, so the recursion never flattens again."""
    if isinstance(plan, (Scan, Hole)):
        return plan
    children = [_distribute(c, cost_model, max_terms) for c in plan.children()]
    if isinstance(plan, Union):
        return union_of(children)
    # plan is a Join over optimised children
    union_children: List[Sequence[PlanNode]] = []
    for child in children:
        if isinstance(child, Union):
            union_children.append(child.children())
        else:
            union_children.append((child,))
    combinations = 1
    for group in union_children:
        combinations *= len(group)
    if combinations <= 1 or combinations > max_terms:
        return join_of(children)
    if cost_model is not None and not _distribution_beneficial(plan, cost_model):
        return join_of(children)
    # each combination's inputs are flat: flattening their join only
    # splices the inputs that are joins themselves
    terms = [
        join_of([g for e in combo for g in (e.children() if type(e) is Join else (e,))])
        for combo in itertools.product(*union_children)
    ]
    return union_of(terms)


def _distribution_beneficial(join: Join, cost_model: CostModel) -> bool:
    """The paper's guard: expected join result smaller than any input."""
    join_rows = cost_model.cardinality(join)
    input_rows = [cost_model.cardinality(c) for c in join.children()]
    return bool(input_rows) and join_rows < min(input_rows)


def merge_same_peer_scans(plan: PlanNode) -> PlanNode:
    """Transformation Rules 1 and 2: merge same-peer join inputs.

    On the flattened n-ary join form, all scan inputs of a join that
    live at one peer collapse into a single composite scan executed
    there.  A join whose inputs all merge into one scan collapses to
    that scan (Rule 1); partial merges reduce the join arity (Rule 2).
    """
    return _merge(flatten(plan))


def _merge(plan: PlanNode) -> PlanNode:
    """:func:`merge_same_peer_scans` of a flat plan, which stays flat:
    a join's rewritten inputs are scans, holes and unions, a union's
    are scans, holes and joins."""
    if isinstance(plan, (Scan, Hole)):
        return plan
    children = [_merge(c) for c in plan.children()]
    if isinstance(plan, Union):
        return union_of(children)
    merged: List[PlanNode] = []
    scans_by_peer: dict = {}
    for child in children:
        if isinstance(child, Scan):
            scans_by_peer.setdefault(child.peer_id, []).append(child)
        else:
            merged.append(child)
    for peer_id in sorted(scans_by_peer):
        group = scans_by_peer[peer_id]
        if len(group) == 1:
            merged.append(group[0])
        else:
            patterns = [p for scan in group for p in scan.patterns()]
            patterns.sort(key=lambda p: p.label)
            merged.append(Scan(tuple(patterns), peer_id))
    # deterministic, paper-style shape: scans first (by label), then
    # inner subplans, holes last (⋈(Q1@P2, Q2@?) as in Figure 7)
    merged.sort(
        key=lambda n: (isinstance(n, Hole), not isinstance(n, Scan), n.render())
    )
    return join_of(merged)


def order_joins_by_cost(plan: PlanNode, cost_model: CostModel) -> PlanNode:
    """Statistics-driven join ordering, applied recursively.

    Every n-ary join's inputs are reordered by ascending estimated
    cardinality (render text breaking ties, for determinism).  Under
    the model's multiplicative cardinality estimate the cost of a join
    prefix is a product of its inputs' cardinalities, so the ascending
    order minimises *every* intermediate prefix simultaneously — the
    greedy order coincides with the dynamic-programming optimum, at
    O(n log n) instead of O(2^n).  Holes (unroutable patterns) keep
    their conventional last position.
    """
    return _order(flatten(plan), cost_model)


def _order(plan: PlanNode, cost_model: CostModel) -> PlanNode:
    """:func:`order_joins_by_cost` of a flat plan (reordering keeps it
    flat)."""
    if isinstance(plan, (Scan, Hole)):
        return plan
    children = [_order(c, cost_model) for c in plan.children()]
    if isinstance(plan, Union):
        return union_of(children)
    children.sort(
        key=lambda c: (isinstance(c, Hole), cost_model.cardinality(c), c.render())
    )
    return join_of(children)


def optimize(
    plan: PlanNode,
    cost_model: Optional[CostModel] = None,
    distribute: bool = True,
    merge: bool = True,
    cost_based: bool = False,
    coordinator: str = "",
) -> OptimizationTrace:
    """Run the full compile-time pipeline and return its trace.

    The trace's steps reproduce Figure 4: input (Plan 1), after
    distribution (Plan 2), after the transformation rules (Plan 3).
    With ``cost_based`` on, a statistics-driven join-ordering pass
    follows, and the trace's :attr:`~OptimizationTrace.cost_decision`
    records the chosen plan's estimated cost against the rule-based
    plan it displaced (priced from ``coordinator``'s vantage point).
    """
    trace = OptimizationTrace(flatten(plan))
    current = trace.result
    if distribute:
        current = _distribute(current, cost_model, MAX_DISTRIBUTED_TERMS)
        trace.record("distribute joins/unions", current)
    if merge:
        current = merge_same_peer_scans(current)
        trace.record("merge same-peer (TR1/TR2)", current)
    if cost_based:
        model = cost_model or CostModel()
        rule_based = current
        current = order_joins_by_cost(current, model)
        trace.record("cost-based join order", current)
        trace.cost_decision = {
            "chosen": model.plan_cost(current, coordinator).total,
            "rejected": model.plan_cost(rule_based, coordinator).total,
        }
    return trace
