"""Relational operators over id tables.

The kernels the execution engine composes above the scans: n-ary union
and join with eager duplicate elimination and dead-column pruning, and
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

from typing import Iterable, List, Optional, Sequence

from ..errors import EvaluationError
from ..rdf.terms import Literal
from ..rql.ast import Condition
from ..rql.evaluator import _COMPARATORS
from .batch import BindingBatch
from .encoded import EncodedTable


def vunion_all_distinct(
    tables: Sequence[BindingBatch], needed: Optional[set] = None
) -> BindingBatch:
    """Union with duplicate elimination after the concat.

    The coordinator's final step is always a distinct projection, so
    dropping duplicates early changes no answer while keeping id-space
    intermediates from carrying the multiplicities a later join would
    multiply.  With ``needed`` set,
    columns nothing above the union references are pruned first (every
    operand covers the same column set, so pruning is uniform).
    """
    if not tables:
        raise EvaluationError("union of zero tables")
    if needed is not None:
        keep = [c for c in tables[0].columns if c in needed]
        if len(keep) < len(tables[0].columns):
            tables = [t.project(keep) for t in tables]
    if len(tables) == 1:
        return tables[0].distinct()
    return BindingBatch.concat(tables).distinct()


def vjoin_all_distinct(
    tables: Sequence[BindingBatch], needed: Optional[set] = None
) -> BindingBatch:
    """Hash-join cascade with per-step duplicate elimination and
    (optionally) dead-column pruning.

    Sound for the same reason as :func:`vunion_all_distinct`: the set
    of distinct rows of ``distinct(A) ⋈ distinct(B)`` equals that of
    ``A ⋈ B``, and only the distinct set survives finalisation.

    With ``needed`` set (the coordinator knows the query's projection
    and condition variables plus every variable the rest of the plan
    still references), columns outside ``needed`` and outside every
    yet-unjoined operand are projected away after each step *before*
    the distinct — chain-interior variables stop keeping rows distinct,
    which is what collapses the multiplicative intermediate blowup.
    """
    if not tables:
        raise EvaluationError("join of zero tables")
    remaining = [set(t.columns) for t in tables]
    result = tables[0].distinct()
    for index, table in enumerate(tables[1:], start=1):
        result = result.hash_join(table.distinct())
        if needed is not None:
            later: set = set()
            for columns in remaining[index + 1 :]:
                later |= columns
            keep = [c for c in result.columns if c in needed or c in later]
            if len(keep) < len(result.columns):
                result = result.project(keep)
        result = result.distinct()
    if needed is not None and len(tables) == 1:
        keep = [c for c in result.columns if c in needed]
        if len(keep) < len(result.columns):
            result = result.project(keep).distinct()
    return result


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
