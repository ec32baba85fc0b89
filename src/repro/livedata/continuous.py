"""Continuous (standing) query state and binding-table deltas.

A standing query's answer follows the data: at each quiescent revision
the coordinator re-evaluates it and pushes only what changed — a
:class:`~repro.livedata.updates.ContinuousUpdate` carrying the added
and removed bindings.  Subscribers reconstruct the current answer by
*folding* updates onto their snapshot: ``next = (prev - removed) +
added``, a multiset identity the difftest wall checks bit-for-bit
against a from-scratch oracle evaluation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import EvaluationError
from ..rql.bindings import BindingTable
from .updates import ContinuousUpdate


@dataclass
class StandingQuery:
    """Coordinator-side state of one continuous subscription."""

    query_id: str
    text: str
    reply_to: str
    #: the answer as of the last pushed revision (None before the
    #: initial evaluation completed)
    snapshot: Optional[BindingTable] = None
    #: highest revision evaluated (0 = the initial snapshot)
    revision: int = 0
    #: True while a re-evaluation is in flight (refreshes arriving
    #: faster than evaluations queue up in :attr:`pending_revisions`)
    evaluating: bool = False
    pending_revisions: list = field(default_factory=list)


def _aligned_rows(table: BindingTable, columns: Tuple[str, ...]):
    """The table's rows reordered into ``columns`` order."""
    if table.columns == columns:
        return list(table.rows)
    if not table.rows:
        # an empty table aligns with anything (the columns of an empty
        # standing-query snapshot are unknown until rows first appear)
        return []
    if set(table.columns) != set(columns):
        raise EvaluationError(
            f"cannot align columns {table.columns} with {columns}"
        )
    reorder = [table.column_index(c) for c in columns]
    return [tuple(row[i] for i in reorder) for row in table.rows]


def _canonical(rows) -> "Counter":
    return Counter(rows)


def _row_key(row) -> Tuple[str, ...]:
    """Deterministic ordering for rows of (unorderable) terms."""
    return tuple(term.n3() for term in row)


def table_delta(
    previous: Optional[BindingTable], current: BindingTable
) -> Tuple[BindingTable, BindingTable]:
    """The ``(added, removed)`` multiset difference turning ``previous``
    into ``current`` (both over ``current``'s columns)."""
    columns = current.columns
    before = _canonical(
        _aligned_rows(previous, columns) if previous is not None else ()
    )
    after = _canonical(list(current.rows))
    added = BindingTable(columns)
    removed = BindingTable(columns)
    for row, count in sorted((after - before).items(), key=lambda kv: _row_key(kv[0])):
        for _ in range(count):
            added.append(row)
    for row, count in sorted((before - after).items(), key=lambda kv: _row_key(kv[0])):
        for _ in range(count):
            removed.append(row)
    return added, removed


def fold_delta(
    previous: Optional[BindingTable], update: ContinuousUpdate
) -> BindingTable:
    """Apply one pushed delta: ``(previous - removed) + added``.

    The subscriber-side half of the protocol; folding every update in
    revision order onto the initial snapshot reproduces the
    coordinator's current answer exactly.
    """
    added, removed = update.added.to_terms(), update.removed.to_terms()
    columns = added.columns or (
        previous.columns if previous is not None else removed.columns
    )
    rows = _canonical(
        _aligned_rows(previous, columns) if previous is not None else ()
    )
    rows = rows - _canonical(_aligned_rows(removed, columns))
    rows = rows + _canonical(_aligned_rows(added, columns))
    out = BindingTable(columns)
    for row, count in sorted(rows.items(), key=lambda kv: _row_key(kv[0])):
        for _ in range(count):
            out.append(row)
    return out
