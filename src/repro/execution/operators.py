"""Relational operators over id tables.

The kernels the execution engine composes above the scans: n-ary union
and join with eager duplicate elimination and dead-column pruning, and
the coordinator's final filter/project/pack step.  Operands are *id
tables* (:class:`~repro.rql.bindings.BindingTable` values whose cells
are dictionary ids); the work runs column-wise on
:class:`~repro.execution.batch.BindingBatch` without building a per-row
dict, and terms appear once each, when :func:`finalize_encoded` packs
the answer.

``tests/difftest`` and the property suites compare these against the
centralized evaluator (:mod:`repro.rql.evaluator`), which runs on
:meth:`BindingTable.join` / :meth:`BindingTable.union`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..errors import EvaluationError
from ..rdf.terms import Literal
from ..rql.ast import Condition
from ..rql.bindings import BindingTable
from ..rql.evaluator import _COMPARATORS
from .batch import BindingBatch
from .encoded import EncodedTable


def vunion_all_distinct(
    tables: Sequence[BindingTable], needed: Optional[set] = None
) -> BindingTable:
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
    batches = [BindingBatch.from_table(t) for t in tables]
    if needed is not None:
        keep = [c for c in batches[0].columns if c in needed]
        if len(keep) < len(batches[0].columns):
            batches = [b.project(keep) for b in batches]
    if len(batches) == 1:
        return batches[0].distinct().to_table()
    return BindingBatch.concat(batches).distinct().to_table()


def vjoin_all_distinct(
    tables: Sequence[BindingTable], needed: Optional[set] = None
) -> BindingTable:
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
    result = BindingBatch.from_table(tables[0]).distinct()
    for index, table in enumerate(tables[1:], start=1):
        result = result.hash_join(BindingBatch.from_table(table).distinct())
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
    return result.to_table()


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
    table: BindingTable,
    dictionary,
    projections: Sequence[str],
    conditions: Iterable[Condition] = (),
) -> EncodedTable:
    """Coordinator post-processing of an *id table*: filter (decoding
    per distinct id), project, de-duplicate on ints, and pack the final
    — already small — table for the wire, each distinct term once."""
    batch = BindingBatch.from_table(table)
    columns = set(batch.columns)
    for condition in conditions:
        if not referenced_columns(condition).issubset(columns):
            continue
        batch = batch.compress(_encoded_condition_mask(batch, condition, dictionary))
    available = [c for c in projections if c in columns]
    batch = batch.project(available).distinct()
    return EncodedTable.of_batch(batch, dictionary.decode_many)
