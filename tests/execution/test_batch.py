"""Unit tests for the columnar BindingBatch kernel."""

import pytest

from repro.errors import EvaluationError
from repro.execution import batch as batch_module
from repro.execution.batch import BindingBatch
from repro.execution.encoded import EncodedTable
from repro.execution.operators import (
    finalize_encoded,
    vjoin_all_distinct,
    vunion_all_distinct,
)
from repro.rdf import Literal, Namespace
from repro.rdf.dictionary import TermDictionary
from repro.rql.ast import Condition
from repro.rql.bindings import BindingTable
from repro.rql.evaluator import _condition_predicate

from ..idtables import encode_cells

EX = Namespace("http://e/")


def table(columns, rows):
    return BindingTable(columns, rows)


def batches(tables):
    return [BindingBatch.from_table(t) for t in tables]


def finalized(t, projections, conditions=()):
    """``finalize_encoded`` over ``t`` interned through a fresh dictionary."""
    dictionary = TermDictionary()
    return finalize_encoded(
        encode_cells(t, dictionary), dictionary, projections, conditions
    ).to_terms()


def oracle(t, projections, conditions=()):
    """The same filter/project/distinct on the centralized evaluator's
    row-at-a-time operators."""
    for condition in conditions:
        t = t.select(_condition_predicate(condition))
    return t.project(projections).distinct()


class TestConversions:
    def test_round_trip_preserves_rows_and_order(self):
        t = table(("X", "Y"), [(EX.a, EX.b), (EX.c, EX.d), (EX.a, EX.b)])
        assert BindingBatch.from_table(t).to_table().rows == t.rows

    def test_round_trip_empty_table(self):
        t = table(("X",), [])
        back = BindingBatch.from_table(t).to_table()
        assert back.columns == ("X",)
        assert back.rows == []

    def test_unit_round_trips(self):
        assert BindingBatch((), length=1).to_table() == BindingTable.unit()

    def test_zero_column_length_preserved(self):
        t = BindingTable.unit()
        batch = BindingBatch.from_table(t)
        assert len(batch) == 1
        assert len(batch.to_table()) == 1

    def test_duplicate_columns_rejected(self):
        with pytest.raises(EvaluationError):
            BindingBatch(("X", "X"))

    def test_ragged_columns_rejected(self):
        with pytest.raises(EvaluationError):
            BindingBatch(("X", "Y"), {"X": [EX.a], "Y": []})


class TestHashJoin:
    def test_matches_scalar_join(self):
        a = table(("X", "Y"), [(EX.a, EX.b), (EX.c, EX.d), (EX.a, EX.e)])
        b = table(("Y", "Z"), [(EX.b, EX.f), (EX.b, EX.g), (EX.d, EX.h)])
        scalar = a.join(b)
        vector = (
            BindingBatch.from_table(a).hash_join(BindingBatch.from_table(b)).to_table()
        )
        assert vector == scalar
        assert vector.columns == scalar.columns

    def test_duplicates_multiply(self):
        a = table(("X",), [(EX.a,), (EX.a,)])
        b = table(("X",), [(EX.a,), (EX.a,), (EX.a,)])
        out = BindingBatch.from_table(a).hash_join(BindingBatch.from_table(b))
        assert len(out) == 6

    def test_cartesian_when_no_shared_columns(self):
        a = table(("X",), [(EX.a,), (EX.b,)])
        b = table(("Y",), [(EX.c,), (EX.d,)])
        vector = (
            BindingBatch.from_table(a).hash_join(BindingBatch.from_table(b)).to_table()
        )
        assert vector == a.join(b)
        assert len(vector) == 4

    def test_unit_is_identity(self):
        t = table(("X",), [(EX.a,), (EX.b,)])
        joined = BindingBatch((), length=1).hash_join(BindingBatch.from_table(t))
        assert joined.to_table() == t

    def test_empty_side_gives_empty(self):
        a = table(("X",), [])
        b = table(("X",), [(EX.a,)])
        out = BindingBatch.from_table(a).hash_join(BindingBatch.from_table(b))
        assert len(out) == 0


class TestConcatProjectCompress:
    def test_concat_aligns_column_permutations(self):
        a = table(("X", "Y"), [(EX.a, EX.b)])
        b = table(("Y", "X"), [(EX.c, EX.d)])
        out = BindingBatch.concat(
            [BindingBatch.from_table(a), BindingBatch.from_table(b)]
        ).to_table()
        assert out == a.union(b)

    def test_concat_mismatched_columns_rejected(self):
        a = BindingBatch.from_table(table(("X",), []))
        b = BindingBatch.from_table(table(("Y",), []))
        with pytest.raises(EvaluationError):
            BindingBatch.concat([a, b])

    def test_project_copies(self):
        batch = BindingBatch.from_table(table(("X", "Y"), [(EX.a, EX.b)]))
        projected = batch.project(["Y"])
        projected.data["Y"].append(EX.z)
        assert len(batch.data["Y"]) == 1

    def test_project_missing_column_rejected(self):
        batch = BindingBatch.from_table(table(("X",), []))
        with pytest.raises(EvaluationError):
            batch.project(["Z"])

    def test_compress_keeps_masked_rows(self):
        batch = BindingBatch.from_table(
            table(("X",), [(EX.a,), (EX.b,), (EX.c,)])
        )
        out = batch.compress([True, False, True])
        assert out.to_table().rows == [(EX.a,), (EX.c,)]

    def test_compress_wrong_mask_length_rejected(self):
        batch = BindingBatch.from_table(table(("X",), [(EX.a,)]))
        with pytest.raises(EvaluationError):
            batch.compress([True, False])

    def test_distinct_keeps_first_occurrences(self):
        t = table(("X",), [(EX.a,), (EX.b,), (EX.a,)])
        assert BindingBatch.from_table(t).distinct().to_table() == t.distinct()

    def test_distinct_zero_columns(self):
        batch = BindingBatch((), length=5)
        assert len(batch.distinct()) == 1

    def test_distinct_of_a_flagged_batch_is_the_batch(self):
        t = table(("X", "Y"), [(EX.a, EX.b), (EX.a, EX.b), (EX.c, EX.b)])
        flagged = BindingBatch.from_table(t).distinct()
        assert flagged.unique
        assert flagged.distinct() is flagged

    def test_projection_dropping_a_column_clears_the_flag(self):
        t = table(("X", "Y"), [(EX.a, EX.b), (EX.c, EX.b)])
        flagged = BindingBatch.from_table(t).distinct()
        assert flagged.project(("Y", "X")).unique
        assert flagged.align(("Y", "X")).unique
        dropped = flagged.project(("Y",))
        assert not dropped.unique
        assert dropped.distinct().to_table().rows == [(EX.b,)]

    def test_align_reorders_header(self):
        batch = BindingBatch.from_table(table(("X", "Y"), [(EX.a, EX.b)]))
        aligned = batch.align(("Y", "X"))
        assert aligned.to_table().rows == [(EX.b, EX.a)]


class TestSplit:
    def test_split_partitions(self):
        t = table(("X",), [(EX.a,)] * 10)
        parts = BindingBatch.from_table(t).split(4)
        assert [len(p) for p in parts] == [4, 4, 2]

    def test_split_small_returns_self(self):
        batch = BindingBatch.from_table(table(("X",), [(EX.a,)]))
        assert batch.split(256) == [batch]

    def test_split_invalid_size_rejected(self):
        with pytest.raises(EvaluationError):
            BindingBatch.from_table(table(("X",), [])).split(0)

    def test_split_table_slices(self):
        terms = table(("X",), [(EX.a,), (EX.b,), (EX.b,)])
        parts = [
            EncodedTable.of_batch(part, tuple)
            for part in BindingBatch.from_table(terms).split(2)
        ]
        assert [len(p) for p in parts] == [2, 1]
        # each slice is packed over its own terms
        assert [p.terms for p in parts] == [(EX.a, EX.b), (EX.b,)]
        assert [p.ids for p in parts] == [((0, 1),), ((0,),)]


class TestVectorizedOperators:
    """The engine's combine/finalize kernels against the centralized
    evaluator's ``BindingTable`` operators."""

    def test_vunion_matches_union(self):
        tables = [
            table(("X", "Y"), [(EX.a, EX.b)]),
            table(("Y", "X"), [(EX.c, EX.d), (EX.e, EX.f), (EX.b, EX.a)]),
            table(("X", "Y"), []),
        ]
        folded = tables[0].union(tables[1]).union(tables[2])
        assert vunion_all_distinct(batches(tables)).to_table() == folded.distinct()

    def test_vjoin_matches_join(self):
        tables = [
            table(("X", "Y"), [(EX.a, EX.b), (EX.c, EX.b)]),
            table(("Y", "Z"), [(EX.b, EX.d)]),
            table(("Z",), [(EX.d,), (EX.d,)]),
        ]
        folded = tables[0].join(tables[1]).join(tables[2])
        assert vjoin_all_distinct(batches(tables)).to_table() == folded.distinct()

    def test_vjoin_prunes_columns_nothing_references(self):
        tables = [
            table(("X", "Y"), [(EX.a, EX.b), (EX.c, EX.b)]),
            table(("Y", "Z"), [(EX.b, EX.d), (EX.b, EX.e)]),
        ]
        folded = tables[0].join(tables[1])
        pruned = vjoin_all_distinct(batches(tables), {"X"})
        assert pruned.to_table() == folded.project(["X"]).distinct()

    def test_vjoin_keeps_chain_intermediates_within_the_largest_operand(
        self, monkeypatch
    ):
        """The ``sim-join`` shape: ``(V0,V1) ⋈ (V1,V2) ⋈ (V2,)`` under
        ``SELECT V0, V1`` with a fan-out of 12 on ``V1``.  Joining the
        first two in plan order multiplies that fan-out into ~12x the
        largest operand; eliminating the dead ``V2`` first does not."""
        hubs, fan_out = 40, 12
        v0v1 = BindingBatch(("V0", "V1"), {
            "V0": [h * fan_out + k for h in range(hubs) for k in range(fan_out)],
            "V1": [h for h in range(hubs) for _ in range(fan_out)],
        })
        v1v2 = BindingBatch(("V1", "V2"), {
            "V1": [h for h in range(hubs) for _ in range(fan_out)],
            "V2": [(h + k) % hubs for h in range(hubs) for k in range(fan_out)],
        })
        v2 = BindingBatch(("V2",), {"V2": list(range(0, hubs, 2))})
        outputs = []
        hash_join = BindingBatch.hash_join

        def recording(self, other):
            out = hash_join(self, other)
            outputs.append(len(out))
            return out

        monkeypatch.setattr(BindingBatch, "hash_join", recording)
        result = vjoin_all_distinct([v0v1, v1v2, v2], {"V0", "V1"})
        assert result.columns == ("V0", "V1")
        assert len(result) == len(v0v1)  # every hub reaches an even V2
        assert outputs and max(outputs) <= max(map(len, (v0v1, v1v2, v2)))

    def test_vjoin_over_union_outputs_skips_their_distinct_pass(
        self, monkeypatch
    ):
        """Union outputs arrive flagged, so the join kernel runs no
        de-duplication pass over an operand it keeps whole."""
        left = vunion_all_distinct(batches([
            table(("X", "Y"), [(EX.a, EX.b), (EX.c, EX.b)]),
            table(("Y", "X"), [(EX.b, EX.a), (EX.d, EX.e)]),
        ]))
        right = vunion_all_distinct(batches([
            table(("Y", "Z"), [(EX.b, EX.f)]),
            table(("Y", "Z"), [(EX.e, EX.f), (EX.b, EX.f)]),
        ]))
        passes = []
        distinct_union = batch_module.distinct_union

        def recording(operands, columns=None):
            passes.append(operands)
            return distinct_union(operands, columns)

        monkeypatch.setattr(batch_module, "distinct_union", recording)
        # the dead Z is cut from ``right``, and the join's output is cut
        # to X: only those two projections need a pass
        result = vjoin_all_distinct([left, right], {"X"})
        assert len(passes) == 2
        assert all(
            operand is not left and operand is not right
            for operands in passes
            for operand in operands
        )
        assert result.to_table().rows == [(EX.a,), (EX.c,)]

    def test_vectorized_conditions_match_scalar(self):
        t = table(
            ("X", "Y"),
            [
                (Literal(1), Literal(2)),
                (Literal(5), Literal(3)),
                (Literal("text"), Literal(3)),
            ],
        )
        conditions = [Condition("X", ">", Literal(2))]
        assert finalized(t, ["X", "Y"], conditions) == oracle(t, ["X", "Y"], conditions)

    def test_vectorized_variable_condition_matches_scalar(self):
        t = table(("X", "Y"), [(Literal(1), Literal(2)), (Literal(5), Literal(3))])
        conditions = [Condition("X", "<", "Y", value_is_variable=True)]
        assert finalized(t, ["X", "Y"], conditions) == oracle(t, ["X", "Y"], conditions)

    def test_finalize_paths_agree(self):
        t = table(
            ("X", "Y", "Z"),
            [
                (EX.a, Literal(1), EX.p),
                (EX.a, Literal(7), EX.q),
                (EX.a, Literal(7), EX.r),
            ],
        )
        conditions = [Condition("Y", ">=", Literal(2))]
        expected = oracle(t, ["X", "Y"], conditions)
        actual = finalized(t, ["X", "Y"], conditions)
        assert actual == expected
        assert actual.columns == expected.columns
