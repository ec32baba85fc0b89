"""Relational operators over id tables.

The kernels the execution engine composes above the scans: n-ary union
and join with eager duplicate elimination and dead-column pruning (the
join eliminates dead variables before it cascades), and
the coordinator's final filter/project/pack step.  Operands and
results are *id tables* — column-major
:class:`~repro.execution.batch.BindingBatch` values whose cells are
dictionary ids —, so the work runs column-wise from the first operand
to the last result without a row tuple or per-row dict, and terms
appear once each, when :func:`finalize_encoded` packs the answer.

``tests/difftest`` and the property suites compare these against the
centralized evaluator (:mod:`repro.rql.evaluator`), which runs on the
row-major :meth:`BindingTable.join` / :meth:`BindingTable.union`.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, List, Optional, Sequence

from ..errors import EvaluationError
from ..rdf.terms import Literal
from ..rql.ast import Condition
from ..rql.evaluator import _COMPARATORS
from .batch import BindingBatch, distinct_union
from .encoded import EncodedTable


def vunion_all_distinct(
    tables: Sequence[BindingBatch], needed: Optional[set] = None
) -> BindingBatch:
    """Union with duplicate elimination, in one pass over the operands'
    rows (the concatenation is never built).

    The coordinator's final step is always a distinct projection, so
    dropping duplicates early changes no answer while keeping id-space
    intermediates from carrying the multiplicities a later join would
    multiply.  With ``needed`` set,
    columns nothing above the union references are pruned first (every
    operand covers the same column set, so pruning is uniform).
    """
    if not tables:
        raise EvaluationError("union of zero tables")
    columns = tables[0].columns
    if needed is not None:
        columns = tuple(c for c in columns if c in needed)
    if len(tables) == 1 and len(columns) == len(tables[0].columns):
        return tables[0].distinct()
    return distinct_union(tables, columns)


def vjoin_all_distinct(
    tables: Sequence[BindingBatch], needed: Optional[set] = None
) -> BindingBatch:
    """Natural join of ``tables`` as a distinct projection onto
    ``needed``, by dead-variable elimination, then a hash-join cascade.

    With ``needed`` set (the coordinator knows the query's projection
    and condition variables plus every variable the rest of the plan
    still references), a column outside it is *dead*.  The kernel

    1. projects every operand onto the columns that are needed or held
       by another operand, and de-duplicates it;
    2. while a dead column is held by at least two operands but not by
       all of those remaining, hash-joins exactly its holders (the
       column whose holders have the smallest row-count product first,
       ties in plan order), projects away every column now neither
       needed nor held by another operand, de-duplicates, and puts the
       result in the first holder's slot;
    3. runs the left-deep cascade over what remains, pruning after each
       step the columns neither needed nor held by a yet-unjoined
       operand and de-duplicating, and aligns the header to the
       columns' first appearance across ``tables``, needed ones only.

    Step 2 is what keeps a chain's intermediates bounded: the interior
    variable of ``(V0,V1) ⋈ (V1,V2) ⋈ (V2,)`` under ``SELECT V0, V1``
    is gone after one join of its two holders, instead of multiplying
    the fan-out of ``V1`` into a three-column intermediate first.

    Sound because only the distinct projection survives finalisation:
    ``π(distinct(A) ⋈ distinct(B))`` and ``π(A ⋈ B)`` have the same
    distinct rows, the join is associative and commutative over row
    sets, and a column no other operand holds and nothing above reads
    can be projected away before the join instead of after it.  Only
    the order of rows moves; with ``needed=None`` no column is dead and
    the result is the plain cascade's, row order included.
    """
    if not tables:
        raise EvaluationError("join of zero tables")
    operands = [
        _live_columns(table, needed, tables[:index] + tables[index + 1 :])
        for index, table in enumerate(tables)
    ]
    if needed is not None:
        operands = _eliminate_dead(operands, needed)
    result = operands[0]
    for index, table in enumerate(operands[1:], start=1):
        result = _live_columns(result.hash_join(table), needed, operands[index + 1 :])
    order = dict.fromkeys(c for table in tables for c in table.columns)
    columns = tuple(c for c in order if needed is None or c in needed)
    return result if result.columns == columns else result.align(columns)


def _live_columns(
    table: BindingBatch, needed: Optional[set], others: Sequence[BindingBatch]
) -> BindingBatch:
    """``table`` projected onto the columns that are ``needed`` or held
    by one of ``others``, de-duplicated."""
    if needed is not None:
        keep = [
            c for c in table.columns
            if c in needed or any(c in other.data for other in others)
        ]
        if len(keep) < len(table.columns):
            table = table.project(keep)
    return table.distinct()


def _eliminate_dead(
    operands: List[BindingBatch], needed: set
) -> List[BindingBatch]:
    """Step 2 of :func:`vjoin_all_distinct`: join the holders of one
    dead column at a time, until every dead column left is held by one
    operand or by all of them."""
    while True:
        best = None
        for column in dict.fromkeys(c for table in operands for c in table.columns):
            if column in needed:
                continue
            holders = [i for i, table in enumerate(operands) if column in table.data]
            if 1 < len(holders) < len(operands):
                cost = prod(len(operands[i]) for i in holders)
                if best is None or cost < best[0]:
                    best = (cost, holders)
        if best is None:
            return operands
        first, *others = best[1]
        merged = operands[first]
        for i in others:
            merged = merged.hash_join(operands[i])
        rest = [table for i, table in enumerate(operands) if i not in best[1]]
        operands[first] = _live_columns(merged, needed, rest)
        operands = [table for i, table in enumerate(operands) if i not in others]


def referenced_columns(condition: Condition) -> set:
    """The variables a WHERE condition reads."""
    referenced = {condition.variable}
    if condition.value_is_variable:
        referenced.add(str(condition.value))
    return referenced


def _decoded_comparables(ids: Sequence[int], dictionary) -> List[object]:
    """Decode an id column into condition-comparable values, decoding
    each *distinct* id exactly once (columnar predicate-over-dictionary:
    the duplicate-heavy column shares the per-term work)."""
    cache: dict = {}
    out: List[object] = []
    for tid in ids:
        if tid in cache:
            out.append(cache[tid])
        else:
            term = dictionary.decode(tid)
            value = term.to_python() if isinstance(term, Literal) else term
            cache[tid] = value
            out.append(value)
    return out


def _encoded_condition_mask(
    batch: BindingBatch, condition: Condition, dictionary
) -> List[bool]:
    """Evaluate one WHERE condition column-wise into a row mask.

    Semantics mirror the centralized evaluator's predicate exactly:
    literals compare by their Python value, incomparable types reject
    the row."""
    compare = _COMPARATORS.get(condition.operator)
    if compare is None:
        raise EvaluationError(f"unsupported operator {condition.operator!r}")
    left = _decoded_comparables(batch.column(condition.variable), dictionary)
    if condition.value_is_variable:
        right: Iterable = _decoded_comparables(
            batch.column(str(condition.value)), dictionary
        )
    else:
        value = condition.value
        constant = value.to_python() if isinstance(value, Literal) else value
        right = [constant] * len(batch)
    mask = []
    for a, b in zip(left, right):
        try:
            mask.append(bool(compare(a, b)))
        except TypeError:
            mask.append(False)
    return mask


def finalize_encoded(
    batch: BindingBatch,
    dictionary,
    projections: Sequence[str],
    conditions: Iterable[Condition] = (),
) -> EncodedTable:
    """Coordinator post-processing of an *id table*: filter (decoding
    per distinct id), project, de-duplicate on ints, and pack the final
    — already small — table for the wire, each distinct term once."""
    columns = set(batch.columns)
    for condition in conditions:
        if not referenced_columns(condition).issubset(columns):
            continue
        batch = batch.compress(_encoded_condition_mask(batch, condition, dictionary))
    available = [c for c in projections if c in columns]
    batch = batch.project(available).distinct()
    return EncodedTable.of_batch(batch, dictionary.decode_many)
