"""The operators a plan walk builds at a ``Join``/``Union`` node.

:class:`~repro.execution.engine.PlanExecutor` walks a plan once; what
it builds at an inner node is the only thing that differs between the
two ways of running it.  Both families have the same shape — ``n``
inputs, each fed chunks through ``input(i)``'s ``feed`` and closed by
its ``finish``, one ``emit`` downstream, ``done`` once every input is
closed — so the walk wires either up the same way:

* **gather** — :class:`BlockingCombine` holds each input's table and
  runs one vectorized kernel (``vjoin_all_distinct`` /
  ``vunion_all_distinct``, eager de-duplication and dead-column
  pruning) when its last input closes.
* **streaming** — Section 2.5's "ability to evaluate this plan in a
  pipeline way": with peers streaming result chunks
  (``DataPacket(final=False)``), :class:`JoinCascade` (symmetric hash
  joins: every arriving chunk probes the opposite side's hash table,
  emits the matches, then builds its own side) and
  :class:`IncrementalUnion` (chunks re-emitted in canonical column
  order) emit output as soon as matching inputs meet.  The observable
  win is **time to first result**.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import EvaluationError
from .batch import BindingBatch, bucket_rows, probe_rows
from .operators import vjoin_all_distinct, vunion_all_distinct

#: Downstream consumer of emitted output chunks (id tables).
Emit = Callable[[BindingBatch], None]
#: One operator input: (feed a chunk, close the input).
Input = Tuple[Emit, Callable[[], None]]


class BlockingCombine:
    """The gather family: hold each input's table, combine them once.

    Args:
        union: Combine by ``vunion_all_distinct``, else by
            ``vjoin_all_distinct``.
        inputs: Number of inputs; each is fed exactly one table.
        needed: The columns the rest of the query references (``None``
            keeps every column) — handed to the kernel, which prunes
            the others before de-duplicating.
        emit: Called once, with the combined table, when the last
            input closes.
    """

    def __init__(self, union: bool, inputs: int, needed: Optional[set], emit: Emit):
        self._kernel = vunion_all_distinct if union else vjoin_all_distinct
        self._tables: List[Optional[BindingBatch]] = [None] * inputs
        self._remaining = inputs
        self._needed = needed
        self._emit = emit

    def input(self, index: int) -> Input:
        return partial(self._store, index), self._finish_one

    def _store(self, index: int, table: BindingBatch) -> None:
        self._tables[index] = table

    def _finish_one(self) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self._emit(self._kernel(self._tables, self._needed))

    @property
    def done(self) -> bool:
        return self._remaining == 0


class IncrementalHashJoin:
    """A symmetric hash join over two chunk streams.

    Args:
        left_columns: Column names of the left input.
        right_columns: Column names of the right input.
        emit: Called with each non-empty output chunk.

    The output columns are ``left_columns`` followed by the right-only
    columns (same convention as :meth:`BindingTable.join`), so batch and
    pipelined evaluation produce identical tables.  Each side keeps the
    rows it has seen column-major plus their row indices bucketed by
    join key; a chunk probes the other side's buckets and the matches
    are materialised by index selection, as in
    :meth:`BindingBatch.hash_join`.
    """

    def __init__(
        self,
        left_columns: Sequence[str],
        right_columns: Sequence[str],
        emit: Emit,
    ):
        self.left_columns = tuple(left_columns)
        self.right_columns = tuple(right_columns)
        self.shared = [c for c in self.left_columns if c in self.right_columns]
        self._right_only = [c for c in self.right_columns if c not in self.left_columns]
        self.out_columns: Tuple[str, ...] = self.left_columns + tuple(self._right_only)
        self._emit = emit
        #: per side (left, right): the rows seen so far …
        self._seen = (BindingBatch(self.left_columns), BindingBatch(self.right_columns))
        #: … and join key → their row indices, in arrival order
        self._buckets: Tuple[Dict[object, List[int]], ...] = ({}, {})

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def feed_left(self, chunk: BindingBatch) -> None:
        """Probe the right side with a left-input chunk, then build."""
        self._feed(chunk, 0)

    def feed_right(self, chunk: BindingBatch) -> None:
        """Probe the left side with a right-input chunk, then build."""
        self._feed(chunk, 1)

    def _feed(self, chunk: BindingBatch, side: int) -> None:
        keys = chunk.join_keys(self.shared)
        chunk_idx, seen_idx = probe_rows(keys, self._buckets[1 - side])
        own, other = self._seen[side], self._seen[1 - side]
        bucket_rows(keys, self._buckets[side], start=own.length)
        for column, values in own.data.items():
            values.extend(chunk.data[column])
        own.length += chunk.length
        if not chunk_idx:
            return
        (left, left_idx), (right, right_idx) = (chunk, chunk_idx), (other, seen_idx)
        if side == 1:  # the chunk is the right input
            left, left_idx, right, right_idx = right, right_idx, left, left_idx
        self._emit(
            left.gather(right, self._right_only, self.out_columns, left_idx, right_idx)
        )


class IncrementalUnion:
    """Re-emits chunks from several inputs, aligned to fixed columns."""

    def __init__(self, columns: Sequence[str], inputs: int, emit: Emit):
        if inputs < 1:
            raise EvaluationError("union needs at least one input")
        self.columns = tuple(columns)
        self._emit = emit
        self._remaining = inputs

    def feed(self, chunk: BindingBatch) -> None:
        if set(chunk.columns) != set(self.columns):
            raise EvaluationError(
                f"union chunk columns {chunk.columns} != {self.columns}"
            )
        if chunk:
            # a header reorder at most, no per-row work
            same = chunk.columns == self.columns
            self._emit(chunk if same else chunk.align(self.columns))

    def finish_one(self) -> None:
        self._remaining -= 1

    def input(self, index: int) -> Input:
        return self.feed, self.finish_one

    @property
    def done(self) -> bool:
        return self._remaining == 0


class JoinCascade:
    """An n-ary pipelined join as a chain of binary stages.

    Input ``i``'s chunks enter stage ``max(0, i-1)``; each stage's
    output feeds the next; the last stage's output is the cascade's.

    Args:
        input_columns: Column tuples of the n inputs, in plan order.
        emit: Consumer of final output chunks.
    """

    def __init__(self, input_columns: Sequence[Sequence[str]], emit: Emit):
        if len(input_columns) < 2:
            raise EvaluationError("a join cascade needs at least two inputs")
        self._stages: List[IncrementalHashJoin] = []
        self._inputs_done = [False] * len(input_columns)
        left = tuple(input_columns[0])
        for index in range(1, len(input_columns)):
            stage_index = index - 1
            is_last = index == len(input_columns) - 1
            stage_emit = emit if is_last else self._feeder(stage_index + 1)
            stage = IncrementalHashJoin(left, tuple(input_columns[index]), stage_emit)
            self._stages.append(stage)
            left = stage.out_columns

    def _feeder(self, next_stage: int) -> Emit:
        def feed(chunk: BindingBatch) -> None:
            self._stages[next_stage].feed_left(chunk)

        return feed

    @property
    def out_columns(self) -> Tuple[str, ...]:
        return self._stages[-1].out_columns

    def feed(self, input_index: int, chunk: BindingBatch) -> None:
        """Route a chunk from input ``input_index`` into its stage."""
        if input_index == 0:
            self._stages[0].feed_left(chunk)
        else:
            self._stages[input_index - 1].feed_right(chunk)

    def finish(self, input_index: int) -> None:
        self._inputs_done[input_index] = True

    def input(self, index: int) -> Input:
        return partial(self.feed, index), partial(self.finish, index)

    @property
    def done(self) -> bool:
        return all(self._inputs_done)


def _pruned(emit: Emit, columns: Sequence[str], needed: Optional[set]) -> Emit:
    """``emit`` behind a projection onto the ``needed`` columns."""
    if needed is None:
        return emit
    keep = [c for c in columns if c in needed]
    if len(keep) == len(columns):
        return emit
    return lambda chunk: emit(chunk.project(keep))


def streaming_operator(
    union: bool,
    input_columns: Sequence[Sequence[str]],
    needed: Optional[set],
    emit: Emit,
):
    """The incremental operator of a ``Union`` (``union``) or ``Join``
    node whose inputs emit ``input_columns``; its output chunks are cut
    down to the ``needed`` columns on the way out."""
    if union or len(input_columns) == 1:
        # a single-input join passes its input through, as a union does
        columns = tuple(input_columns[0])
        return IncrementalUnion(
            columns, len(input_columns), _pruned(emit, columns, needed)
        )
    columns = tuple(dict.fromkeys(c for cols in input_columns for c in cols))
    return JoinCascade(input_columns, _pruned(emit, columns, needed))
