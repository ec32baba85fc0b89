"""Property wall of the ``unique`` flag of id tables.

A :class:`~repro.execution.batch.BindingBatch` flagged ``unique`` lets
every later ``distinct`` skip its pass, so a wrong flag would leave
duplicates in an answer.  Over random operands — duplicate-heavy,
zero-column, empty, chains, stars, cycles and cross products — every
batch any kernel builds and flags must hold pairwise-distinct rows,
and the one-pass ``distinct`` and union must keep exactly the rows,
in exactly the order, of the row-at-a-time ``seen``-set loop.
"""

from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.batch import BindingBatch
from repro.execution.operators import vjoin_all_distinct, vunion_all_distinct
from repro.rql.bindings import BindingTable

from .strategies import RESOURCES, VARIABLES, needed_sets, operand_sets


@contextmanager
def built_batches():
    """Every batch constructed inside the block, intermediates included."""
    built = []
    init = BindingBatch.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    BindingBatch.__init__ = recording
    try:
        yield built
    finally:
        BindingBatch.__init__ = init


def assert_flags_hold(batches):
    for batch in batches:
        if batch.unique:
            rows = batch.to_table().rows
            assert len(set(rows)) == len(rows), batch


def seen_loop(rows):
    """The reference de-duplication: first occurrences, in order."""
    seen = set()
    kept = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            kept.append(row)
    return kept


@st.composite
def union_operands(draw):
    """One to four operands over one column set, each header a
    permutation of it, over a small (duplicate-heavy) value pool."""
    columns = draw(st.lists(st.sampled_from(VARIABLES), unique=True, max_size=3))
    values = st.sampled_from(RESOURCES[: draw(st.integers(1, 3))])
    return [
        BindingTable(
            tuple(draw(st.permutations(columns))),
            draw(st.lists(st.tuples(*[values] * len(columns)), max_size=8)),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]


@given(operand_sets(), needed_sets)
@settings(max_examples=400, deadline=None)
def test_every_batch_the_join_kernel_flags_is_distinct(tables, needed):
    batches = [BindingBatch.from_table(t) for t in tables]
    with built_batches() as built:
        result = vjoin_all_distinct(batches, needed)
    assert result.unique
    assert_flags_hold(built)


@given(operand_sets())
@settings(max_examples=200, deadline=None)
def test_distinct_is_the_seen_loop_and_is_idempotent(tables):
    for table in tables:
        batch = BindingBatch.from_table(table)
        assert not batch.unique
        distinct = batch.distinct()
        assert distinct.unique
        assert distinct.columns == table.columns
        assert distinct.to_table().rows == seen_loop(table.rows)
        assert distinct.distinct() is distinct
        assert batch.to_table().rows == table.rows  # input left alone


@given(union_operands(), needed_sets)
@settings(max_examples=400, deadline=None)
def test_union_is_the_seen_loop_over_the_concatenation(tables, needed):
    batches = [BindingBatch.from_table(t) for t in tables]
    with built_batches() as built:
        result = vunion_all_distinct(batches, needed)
    keep = tuple(c for c in tables[0].columns if needed is None or c in needed)
    assert result.columns == keep
    assert result.to_table().rows == seen_loop(
        row for table in tables for row in table.project(keep).rows
    )
    assert result.unique
    assert_flags_hold(built)
    assert [b.to_table().rows for b in batches] == [t.rows for t in tables]


@given(operand_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_projection_keeps_the_flag_only_with_every_column(tables, data):
    for table in tables:
        batch = BindingBatch.from_table(table).distinct()
        width = data.draw(st.integers(0, len(table.columns)))
        kept = data.draw(st.permutations(table.columns))[:width]
        projected = batch.project(kept)
        assert projected.unique == (len(kept) == len(table.columns))
        assert_flags_hold([projected, batch.align(tuple(reversed(table.columns)))])


@given(operand_sets())
@settings(max_examples=200, deadline=None)
def test_join_of_flagged_inputs_is_flagged_and_distinct(tables):
    flagged = [BindingBatch.from_table(t).distinct() for t in tables]
    result = flagged[0]
    for batch in flagged[1:]:
        result = result.hash_join(batch)
        assert result.unique
        assert_flags_hold([result])
    raw = BindingBatch.from_table(tables[0])
    assert not flagged[0].hash_join(raw).unique
