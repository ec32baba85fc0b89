"""Binding tables: the tabular result representation.

A :class:`BindingTable` is a bag of rows over named variable columns:
what the centralized evaluator (the term-space oracle) computes with and
what a client's stored answer is, so it provides hash-join, union (with
column alignment), projection and filtering.  Inside the engine and on
the wire a table is a column-major id table
(:class:`~repro.execution.batch.BindingBatch`) and its packed form
(:class:`~repro.execution.encoded.EncodedTable`); :func:`table_size_bytes`
is the one wire-size rule they share with this class.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import EvaluationError
from ..rdf.terms import Term

Row = Tuple[Term, ...]


def table_size_bytes(columns: Sequence[str], cells: int, terms: Iterable[Term]) -> int:
    """The one wire-size rule of a binding table: a header, the column
    names, an int32 per cell and each *distinct* term's rendering once
    — what :class:`~repro.execution.encoded.EncodedTable` ships."""
    header = 16 + sum(len(c) + 2 for c in columns)
    return header + 4 * cells + sum(len(term.n3()) for term in terms)


class BindingTable:
    """An ordered-column bag of variable bindings.

    Args:
        columns: Variable names, one per column.
        rows: Row tuples, each as long as ``columns``.
    """

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Sequence[str], rows: Optional[Iterable[Row]] = None):
        self.columns: Tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise EvaluationError(f"duplicate columns in {self.columns}")
        self.rows: List[Row] = []
        if rows is not None:
            for row in rows:
                self.append(row)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, columns: Sequence[str]) -> "BindingTable":
        """An empty table with the given columns."""
        return cls(columns)

    @classmethod
    def unit(cls) -> "BindingTable":
        """The join identity: zero columns, one empty row."""
        table = cls(())
        table.rows.append(())
        return table

    def append(self, row: Sequence[Term]) -> None:
        """Append a row (validated against the column count)."""
        row = tuple(row)
        if len(row) != len(self.columns):
            raise EvaluationError(
                f"row width {len(row)} does not match columns {self.columns}"
            )
        self.rows.append(row)

    def append_binding(self, binding: Dict[str, Term]) -> None:
        """Append a row given as a variable → term mapping."""
        self.append(tuple(binding[c] for c in self.columns))

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise EvaluationError(f"no column {name!r} in {self.columns}") from None

    def bindings(self) -> Iterator[Dict[str, Term]]:
        """Iterate rows as variable → term dictionaries."""
        for row in self.rows:
            yield dict(zip(self.columns, row))

    def column(self, name: str) -> List[Term]:
        """All values of one column (with duplicates)."""
        idx = self.column_index(name)
        return [row[idx] for row in self.rows]

    # ------------------------------------------------------------------
    # relational operators
    # ------------------------------------------------------------------
    def join(self, other: "BindingTable") -> "BindingTable":
        """Natural hash join on the shared columns.

        With no shared columns this degenerates to a cartesian product
        (the unit table is the identity).
        """
        shared = [c for c in self.columns if c in other.columns]
        other_only = [c for c in other.columns if c not in self.columns]
        out = BindingTable(self.columns + tuple(other_only))
        if not shared:
            for left in self.rows:
                for right_binding in other.bindings():
                    out.append(left + tuple(right_binding[c] for c in other_only))
            return out
        # build the hash table on the smaller input
        build, probe = (self, other)
        if len(other.rows) < len(self.rows):
            build, probe = (other, self)
        buckets: Dict[Tuple[Term, ...], List[Dict[str, Term]]] = defaultdict(list)
        for binding in build.bindings():
            buckets[tuple(binding[c] for c in shared)].append(binding)
        for probe_binding in probe.bindings():
            key = tuple(probe_binding[c] for c in shared)
            for build_binding in buckets.get(key, ()):
                merged = dict(build_binding)
                merged.update(probe_binding)
                out.append_binding(merged)
        return out

    def union(self, other: "BindingTable") -> "BindingTable":
        """Bag union; the other table's columns must be a permutation."""
        if set(self.columns) != set(other.columns):
            raise EvaluationError(
                f"union over different columns: {self.columns} vs {other.columns}"
            )
        out = BindingTable(self.columns, self.rows)
        reorder = [other.column_index(c) for c in self.columns]
        for row in other.rows:
            out.append(tuple(row[i] for i in reorder))
        return out

    def project(self, columns: Sequence[str]) -> "BindingTable":
        """Project onto the named columns, preserving row order."""
        indices = [self.column_index(c) for c in columns]
        out = BindingTable(tuple(columns))
        for row in self.rows:
            out.append(tuple(row[i] for i in indices))
        return out

    def select(self, predicate: Callable[[Dict[str, Term]], bool]) -> "BindingTable":
        """Keep rows whose binding dict satisfies ``predicate``."""
        out = BindingTable(self.columns)
        for row, binding in zip(self.rows, self.bindings()):
            if predicate(binding):
                out.append(row)
        return out

    def distinct(self) -> "BindingTable":
        """Remove duplicate rows, keeping first occurrences."""
        out = BindingTable(self.columns)
        seen = set()
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return out

    # ------------------------------------------------------------------
    # size / protocol
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Wire size of this (term) table, were it shipped."""
        cells = len(self.columns) * len(self.rows)
        return table_size_bytes(
            self.columns, cells, {term for row in self.rows for term in row}
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BindingTable):
            return NotImplemented
        if set(self.columns) != set(other.columns):
            return False
        reorder = [other.column_index(c) for c in self.columns]
        theirs = sorted(tuple(r[i].n3() for i in reorder) for r in other.rows)
        ours = sorted(tuple(t.n3() for t in row) for row in self.rows)
        return ours == theirs

    def __repr__(self) -> str:
        return f"BindingTable(columns={self.columns}, rows={len(self.rows)})"
