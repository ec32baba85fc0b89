"""Property wall of the gather join kernel.

:func:`~repro.execution.operators.vjoin_all_distinct` reorders its work
— dead variables are eliminated before the cascade — so it is checked
here against the plainest definition of what it computes: the
centralized evaluator's left-deep :meth:`BindingTable.join` fold, then
the projection onto the needed columns, then ``distinct``.  Operand
sets cover chains, stars, cycles, cross products with no shared column,
zero-column, empty and duplicate-heavy operands.
"""

from hypothesis import example, given, settings

from repro.execution.batch import BindingBatch
from repro.execution.operators import vjoin_all_distinct
from repro.rql.bindings import BindingTable

from .strategies import RESOURCES, needed_sets, operand_sets

R = RESOURCES


def reference(tables, needed):
    """Full fold, then project, then distinct."""
    folded = tables[0]
    for table in tables[1:]:
        folded = folded.join(table)
    keep = [c for c in folded.columns if needed is None or c in needed]
    return folded.project(keep).distinct()


def plain_cascade(batches):
    """The left-deep cascade with per-step ``distinct`` and no
    elimination: what the kernel computes when no column is dead."""
    result = batches[0].distinct()
    for batch in batches[1:]:
        result = result.hash_join(batch.distinct()).distinct()
    return result



@given(operand_sets(), needed_sets)
@settings(max_examples=500, deadline=None)
@example(  # the merged slot comes first but its needed column does not
    [
        BindingTable(("D",), [(R[0],)]),
        BindingTable(("A",), [(R[1],), (R[2],)]),
        BindingTable(("B", "D"), [(R[3], R[0]), (R[3], R[1])]),
    ],
    {"A", "B"},
)
@example(  # the sim-join chain
    [
        BindingTable(("V0", "V1"), [(R[0], R[1]), (R[2], R[1]), (R[3], R[4])]),
        BindingTable(("V1", "V2"), [(R[1], R[5]), (R[1], R[6]), (R[4], R[7])]),
        BindingTable(("V2",), [(R[5],), (R[6],)]),
    ],
    {"V0", "V1"},
)
def test_kernel_is_the_distinct_projection_of_the_fold(tables, needed):
    batches = [BindingBatch.from_table(t) for t in tables]
    actual = vjoin_all_distinct(batches, needed).to_table()
    expected = reference(tables, needed)
    assert actual.columns == expected.columns
    assert actual == expected
    assert len(actual.rows) == len(set(actual.rows))


@given(operand_sets())
@settings(max_examples=150, deadline=None)
def test_without_needed_the_kernel_is_the_plain_cascade_row_for_row(tables):
    batches = [BindingBatch.from_table(t) for t in tables]
    actual = vjoin_all_distinct(batches, None).to_table()
    expected = plain_cascade(batches).to_table()
    assert actual.columns == expected.columns
    assert actual.rows == expected.rows


@given(operand_sets(), needed_sets)
@settings(max_examples=100, deadline=None)
def test_kernel_leaves_its_operands_alone(tables, needed):
    batches = [BindingBatch.from_table(t) for t in tables]
    vjoin_all_distinct(batches, needed)
    assert [b.to_table().rows for b in batches] == [t.rows for t in tables]
