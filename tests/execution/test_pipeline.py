"""Unit tests for the incremental (pipelined) operators."""

import pytest

from repro.errors import EvaluationError
from repro.execution.batch import BindingBatch
from repro.execution.pipeline import (
    IncrementalHashJoin,
    IncrementalUnion,
    JoinCascade,
)
from repro.rdf import Namespace
from repro.rql.bindings import BindingTable

EX = Namespace("http://e/")


def chunk(columns, rows):
    return BindingBatch.from_table(BindingTable(columns, rows))


def rows(batches):
    """The row tuples of emitted chunks, in emission order."""
    return [row for batch in batches for row in batch.to_table().rows]


class TestIncrementalHashJoin:
    def collect(self):
        out = []
        return out, out.append

    def test_matches_emerge_as_inputs_meet(self):
        out, emit = self.collect()
        join = IncrementalHashJoin(("X", "Y"), ("Y", "Z"), emit)
        join.feed_left(chunk(("X", "Y"), [(EX.a, EX.b)]))
        assert out == []  # nothing to match yet
        join.feed_right(chunk(("Y", "Z"), [(EX.b, EX.c)]))
        assert len(out) == 1
        assert out[0].columns == ("X", "Y", "Z")
        assert rows(out) == [(EX.a, EX.b, EX.c)]

    def test_symmetric_order_gives_same_rows(self):
        out1, emit1 = self.collect()
        join1 = IncrementalHashJoin(("X", "Y"), ("Y", "Z"), emit1)
        join1.feed_left(chunk(("X", "Y"), [(EX.a, EX.b)]))
        join1.feed_right(chunk(("Y", "Z"), [(EX.b, EX.c)]))

        out2, emit2 = self.collect()
        join2 = IncrementalHashJoin(("X", "Y"), ("Y", "Z"), emit2)
        join2.feed_right(chunk(("Y", "Z"), [(EX.b, EX.c)]))
        join2.feed_left(chunk(("X", "Y"), [(EX.a, EX.b)]))
        assert out1[0].to_table() == out2[0].to_table()

    def test_equivalent_to_batch_join(self):
        left = BindingTable(("X", "Y"), [(EX.a, EX.b), (EX.c, EX.b), (EX.d, EX.e)])
        right = BindingTable(
            ("Y", "Z"), [(EX.b, EX.z1), (EX.b, EX.z2), (EX.e, EX.z3)]
        )
        expected = left.join(right)

        out, emit = self.collect()
        join = IncrementalHashJoin(left.columns, right.columns, emit)
        # interleave chunk-by-chunk
        for i in range(len(left)):
            join.feed_left(chunk(left.columns, [left.rows[i]]))
            if i < len(right):
                join.feed_right(chunk(right.columns, [right.rows[i]]))
        for i in range(len(left), len(right)):
            join.feed_right(chunk(right.columns, [right.rows[i]]))
        assert BindingTable(join.out_columns, rows(out)) == expected

    def test_no_shared_columns_is_product(self):
        out, emit = self.collect()
        join = IncrementalHashJoin(("X",), ("Y",), emit)
        join.feed_left(chunk(("X",), [(EX.a,), (EX.b,)]))
        join.feed_right(chunk(("Y",), [(EX.c,)]))
        total = sum(len(piece) for piece in out)
        assert total == 2

    def test_empty_chunks_emit_nothing(self):
        out, emit = self.collect()
        join = IncrementalHashJoin(("X", "Y"), ("Y", "Z"), emit)
        join.feed_left(BindingBatch(("X", "Y")))
        join.feed_right(BindingBatch(("Y", "Z")))
        assert out == []


class TestIncrementalUnion:
    def test_chunks_pass_through_aligned(self):
        out = []
        union = IncrementalUnion(("X", "Y"), inputs=2, emit=out.append)
        union.feed(chunk(("X", "Y"), [(EX.a, EX.b)]))
        union.feed(chunk(("Y", "X"), [(EX.d, EX.c)]))  # permuted columns
        assert [batch.columns for batch in out] == [("X", "Y")] * 2
        assert rows(out) == [(EX.a, EX.b), (EX.c, EX.d)]

    def test_mismatched_columns_rejected(self):
        union = IncrementalUnion(("X",), inputs=1, emit=lambda c: None)
        with pytest.raises(EvaluationError):
            union.feed(chunk(("Z",), [(EX.a,)]))

    def test_done_counting(self):
        union = IncrementalUnion(("X",), inputs=2, emit=lambda c: None)
        union.finish_one()
        assert not union.done
        union.finish_one()
        assert union.done

    def test_zero_inputs_rejected(self):
        with pytest.raises(EvaluationError):
            IncrementalUnion(("X",), inputs=0, emit=lambda c: None)


class TestJoinCascade:
    def test_three_way_equivalent_to_batch(self):
        a = BindingTable(("X", "Y"), [(EX.a, EX.b), (EX.a2, EX.b)])
        b = BindingTable(("Y", "Z"), [(EX.b, EX.c)])
        c = BindingTable(("Z", "W"), [(EX.c, EX.d), (EX.c, EX.d2)])
        expected = a.join(b).join(c)

        out = []
        cascade = JoinCascade([a.columns, b.columns, c.columns], out.append)
        cascade.feed(2, BindingBatch.from_table(c))
        cascade.feed(0, BindingBatch.from_table(a))
        cascade.feed(1, BindingBatch.from_table(b))
        assert BindingTable(cascade.out_columns, rows(out)) == expected

    def test_done_tracking(self):
        cascade = JoinCascade([("X",), ("X",), ("X",)], lambda c: None)
        for i in range(3):
            assert not cascade.done
            cascade.finish(i)
        assert cascade.done

    def test_single_input_rejected(self):
        with pytest.raises(EvaluationError):
            JoinCascade([("X",)], lambda c: None)
