"""Column-oriented binding batches: the one id-table type.

A :class:`BindingBatch` holds a bag of variable bindings column-major:
a schema header (ordered variable names) plus one value list per
column.  It is what an *id table* is everywhere in the execution
engine — a scan returns one, channels buffer and concatenate them,
the join/union/filter/projection kernels consume and emit them, and
the answer is packed from one — so no per-row ``dict`` or row tuple is
built between scan and answer.  The kernel is value-agnostic:
production cells are dictionary ids, tests also run it on terms.

The row-major :class:`~repro.rql.bindings.BindingTable` is the
term-space form (the centralized evaluator's, and the one a client
reads).  The two convert losslessly (:meth:`from_table` /
:meth:`to_table`), row order included; the engine pivots only at the
term boundary (:meth:`EncodedTable.of_terms` / ``to_terms``), and the
tests pivot to compare the kernels against :meth:`BindingTable.join` /
:meth:`BindingTable.union`, the operators of the centralized evaluator.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import EvaluationError
from ..rdf.terms import Term
from ..rql.bindings import BindingTable


class BindingBatch:
    """A bag of variable bindings, stored column-major.

    Args:
        columns: The schema header — variable names in order.
        data: One value list per column (all the same length).  Omitted
            columns start empty.
        length: Row count; required only for zero-column batches (the
            join identity has no columns but one row), inferred from
            ``data`` otherwise.
    """

    __slots__ = ("columns", "data", "length")

    def __init__(
        self,
        columns: Sequence[str],
        data: Optional[Dict[str, List[Term]]] = None,
        length: Optional[int] = None,
    ):
        self.columns: Tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise EvaluationError(f"duplicate columns in {self.columns}")
        if data is None:
            self.data: Dict[str, List[Term]] = {c: [] for c in self.columns}
            self.length = length or 0
        else:
            self.data = data
            widths = {len(data[c]) for c in self.columns}
            if len(widths) > 1:
                raise EvaluationError(f"ragged columns: widths {sorted(widths)}")
            inferred = widths.pop() if widths else 0
            if self.columns:
                if length is not None and length != inferred:
                    raise EvaluationError(
                        f"length {length} does not match column width {inferred}"
                    )
                self.length = inferred
            else:
                self.length = length or 0

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_table(cls, table: BindingTable) -> "BindingBatch":
        """Pivot a row-major table into a batch (order preserved)."""
        if not table.columns:
            return cls((), length=len(table.rows))
        if not table.rows:
            return cls(table.columns)
        pivoted = list(zip(*table.rows))
        data = {c: list(pivoted[i]) for i, c in enumerate(table.columns)}
        return cls(table.columns, data)

    def to_table(self) -> BindingTable:
        """Pivot back to a row-major table (order preserved)."""
        table = BindingTable(self.columns)
        if not self.columns:
            table.rows.extend(() for _ in range(self.length))
            return table
        table.rows.extend(zip(*(self.data[c] for c in self.columns)))
        return table

    # ------------------------------------------------------------------
    # relational operators
    # ------------------------------------------------------------------
    def hash_join(self, other: "BindingBatch") -> "BindingBatch":
        """Natural hash join (build on the smaller side, probe with the
        larger), producing ``self.columns`` + other-only columns — the
        same output convention as :meth:`BindingTable.join`.
        """
        shared = [c for c in self.columns if c in other.columns]
        other_only = [c for c in other.columns if c not in self.columns]
        out_columns = self.columns + tuple(other_only)
        # with nothing shared every pair of rows matches; probing with
        # ``self`` keeps that product self-major (as BindingTable.join)
        build_is_self = bool(shared) and self.length <= other.length
        build, probe = (self, other) if build_is_self else (other, self)
        buckets: Dict[object, List[int]] = {}
        bucket_rows(build.join_keys(shared), buckets)
        probe_idx, build_idx = probe_rows(probe.join_keys(shared), buckets)
        if build_is_self:
            return self.gather(other, other_only, out_columns, build_idx, probe_idx)
        return self.gather(other, other_only, out_columns, probe_idx, build_idx)

    def join_keys(self, shared: Sequence[str]) -> Sequence:
        """One hashable join key per row, over the ``shared`` columns."""
        if len(shared) == 1:
            # single-key fast path: hash the values directly instead of
            # boxing every key into a 1-tuple (the common case for both
            # chain joins and dictionary-encoded int columns)
            return self.data[shared[0]]
        if not shared:
            return [()] * self.length  # every pair of rows matches
        return list(zip(*(self.data[c] for c in shared)))

    def gather(
        self,
        other: "BindingBatch",
        other_only: Sequence[str],
        out_columns: Tuple[str, ...],
        self_idx: List[int],
        other_idx: List[int],
    ) -> "BindingBatch":
        """Materialise join output columns by index selection."""
        data: Dict[str, List[Term]] = {}
        for column in self.columns:
            source = self.data[column]
            data[column] = [source[i] for i in self_idx]
        for column in other_only:
            source = other.data[column]
            data[column] = [source[i] for i in other_idx]
        return BindingBatch(out_columns, data, length=len(self_idx))

    @classmethod
    def concat(cls, batches: Sequence["BindingBatch"]) -> "BindingBatch":
        """Bag union: concatenate batches column-wise.

        The first batch fixes the column order; the others must cover
        the same column set (any permutation), as in
        :meth:`BindingTable.union`.
        """
        if not batches:
            raise EvaluationError("concat of zero batches")
        first = batches[0]
        columns = first.columns
        column_set = set(columns)
        data = {c: list(first.data[c]) for c in columns}
        length = first.length
        for batch in batches[1:]:
            if set(batch.columns) != column_set:
                raise EvaluationError(
                    f"union over different columns: {columns} vs {batch.columns}"
                )
            for column in columns:
                data[column].extend(batch.data[column])
            length += batch.length
        return cls(columns, data, length=length)

    def project(self, columns: Sequence[str]) -> "BindingBatch":
        """Keep only the named columns (column lists are copied)."""
        missing = [c for c in columns if c not in self.data]
        if missing:
            raise EvaluationError(f"no column {missing[0]!r} in {self.columns}")
        return BindingBatch(
            tuple(columns),
            {c: list(self.data[c]) for c in columns},
            length=self.length,
        )

    def compress(self, mask: Sequence[bool]) -> "BindingBatch":
        """Keep the rows whose mask entry is true (column-wise filter)."""
        if len(mask) != self.length:
            raise EvaluationError(
                f"mask length {len(mask)} does not match {self.length} rows"
            )
        keep = [i for i, flag in enumerate(mask) if flag]
        data = {
            column: [values[i] for i in keep]
            for column, values in self.data.items()
        }
        return BindingBatch(self.columns, data, length=len(keep))

    def distinct(self) -> "BindingBatch":
        """Drop duplicate rows, keeping first occurrences."""
        if not self.columns:
            return BindingBatch((), length=min(self.length, 1))
        seen = set()
        keep: List[int] = []
        for index, row in enumerate(zip(*(self.data[c] for c in self.columns))):
            if row not in seen:
                seen.add(row)
                keep.append(index)
        data = {c: [self.data[c][i] for i in keep] for c in self.columns}
        return BindingBatch(self.columns, data, length=len(keep))

    def align(self, columns: Sequence[str]) -> "BindingBatch":
        """Reorder the header to ``columns`` (same column set)."""
        if set(columns) != set(self.columns):
            raise EvaluationError(
                f"cannot align {self.columns} to {tuple(columns)}"
            )
        return BindingBatch(
            tuple(columns), {c: self.data[c] for c in columns}, length=self.length
        )

    # ------------------------------------------------------------------
    # batching
    # ------------------------------------------------------------------
    def split(self, batch_size: int) -> List["BindingBatch"]:
        """Partition into batches of at most ``batch_size`` rows (at
        least one batch, possibly empty, so a final marker always has a
        carrier)."""
        if batch_size < 1:
            raise EvaluationError("batch_size must be >= 1")
        if self.length <= batch_size:
            return [self]
        out = []
        for start in range(0, self.length, batch_size):
            stop = start + batch_size
            data = {c: self.data[c][start:stop] for c in self.columns}
            out.append(
                BindingBatch(
                    self.columns, data, length=min(stop, self.length) - start
                )
            )
        return out

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def column(self, name: str) -> List[Term]:
        try:
            return self.data[name]
        except KeyError:
            raise EvaluationError(f"no column {name!r} in {self.columns}") from None

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __repr__(self) -> str:
        return f"BindingBatch(columns={self.columns}, rows={self.length})"


def bucket_rows(
    keys: Iterable, buckets: Dict[object, List[int]], start: int = 0
) -> None:
    """The build half of a hash join: file each key's row index
    (counting from ``start``) under the key, in arrival order."""
    for index, key in enumerate(keys, start):
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [index]
        else:
            bucket.append(index)


def probe_rows(
    keys: Iterable, buckets: Dict[object, List[int]]
) -> Tuple[List[int], List[int]]:
    """The probe half: the matching row pairs, probe-major, as
    ``(probing row indices, bucketed row indices)``."""
    probe_idx: List[int] = []
    build_idx: List[int] = []
    get = buckets.get
    for index, key in enumerate(keys):
        bucket = get(key)
        if bucket is not None:
            build_idx.extend(bucket)
            probe_idx.extend([index] * len(bucket))
    return probe_idx, build_idx


def concat_tables(tables: Sequence[BindingBatch]) -> BindingBatch:
    """Column-aligned bag union of streamed chunks — what the channel
    manager and the executor assemble a multi-chunk stream with.  A lone
    chunk is handed on as it is (no kernel mutates its input), the rest
    is :meth:`BindingBatch.concat`: linear in total rows, where folding
    :meth:`BindingTable.union` over the chunks would be quadratic.
    """
    if len(tables) == 1:
        return tables[0]
    return BindingBatch.concat(tables)

