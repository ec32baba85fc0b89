"""Property-based equivalence: columnar batches vs row-major tables.

Every operator on :class:`BindingBatch` — the engine's kernel — must
agree, as a binding multiset, with the corresponding binding-at-a-time
operator on :class:`BindingTable` — the centralized evaluator's — for
arbitrary inputs over a closed world.  This is the kernel-level half
of the differential-testing story (``tests/difftest`` covers whole
deployments).
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.batch import BindingBatch, concat_tables
from repro.execution.pipeline import IncrementalHashJoin
from repro.rql.bindings import BindingTable

from .strategies import uris


def tables(columns, max_size=12):
    row = st.tuples(*[uris for _ in columns])
    return st.lists(row, max_size=max_size).map(
        lambda rows: BindingTable(columns, rows)
    )


XY = tables(("X", "Y"))
YZ = tables(("Y", "Z"))
YX = tables(("Y", "X"))
W = tables(("W",))
#: zero columns, n rows: the shape of the join identity
ZERO = st.integers(0, 4).map(lambda n: BindingTable((), [()] * n))


class TestJoinEquivalence:
    @given(XY, YZ)
    def test_shared_column_join(self, a, b):
        vector = (
            BindingBatch.from_table(a).hash_join(BindingBatch.from_table(b)).to_table()
        )
        assert vector == a.join(b)

    @given(XY, W)
    @settings(max_examples=40)
    def test_cartesian_join(self, a, b):
        vector = (
            BindingBatch.from_table(a).hash_join(BindingBatch.from_table(b)).to_table()
        )
        assert vector == a.join(b)

    @given(XY)
    def test_unit_identity(self, a):
        joined = BindingBatch((), length=1).hash_join(BindingBatch.from_table(a))
        assert joined.to_table() == a

    @given(XY, YX)
    def test_full_overlap_join(self, a, b):
        """All columns shared: the join is a bag intersection filter."""
        vector = (
            BindingBatch.from_table(a).hash_join(BindingBatch.from_table(b)).to_table()
        )
        assert vector == a.join(b)

    @given(
        st.one_of(
            st.tuples(XY, YZ),
            st.tuples(XY, YX),  # every column shared, permuted header
            st.tuples(XY, W),  # none shared: the cartesian product
            st.tuples(ZERO, W),
            st.tuples(ZERO, ZERO),
        ),
        st.integers(1, 5),
        st.integers(1, 5),
        st.randoms(use_true_random=False),
    )
    def test_incremental_join_of_any_chunking_emits_the_whole_join(
        self, pair, left_size, right_size, rng
    ):
        """The streaming family's symmetric hash join, fed the two
        inputs cut into chunks in any interleaving, emits the multiset
        of rows (multiplicities included) the gather family's
        ``hash_join`` produces on the whole inputs."""
        left, right = (BindingBatch.from_table(t) for t in pair)
        out = []
        join = IncrementalHashJoin(left.columns, right.columns, out.append)
        feeds = [(join.feed_left, part) for part in left.split(left_size)]
        feeds += [(join.feed_right, part) for part in right.split(right_size)]
        rng.shuffle(feeds)
        for feed, part in feeds:
            feed(part)
        expected = left.hash_join(right)
        assert all(chunk.columns == expected.columns for chunk in out)
        emitted = Counter(row for chunk in out for row in chunk.to_table().rows)
        assert emitted == Counter(expected.to_table().rows)


class TestUnionEquivalence:
    @given(XY, YX)
    def test_union_aligns_permuted_columns(self, a, b):
        vector = BindingBatch.concat(
            [BindingBatch.from_table(a), BindingBatch.from_table(b)]
        ).to_table()
        assert vector == a.union(b)

    @given(st.lists(tables(("X", "Y"), max_size=6), min_size=1, max_size=5))
    def test_concat_tables_matches_folded_union(self, chunks):
        folded = chunks[0]
        for chunk in chunks[1:]:
            folded = folded.union(chunk)
        batches = [BindingBatch.from_table(chunk) for chunk in chunks]
        assert concat_tables(batches).to_table() == folded


class TestUnaryEquivalence:
    @given(XY)
    def test_project(self, a):
        vector = BindingBatch.from_table(a).project(["Y"]).to_table()
        assert vector == a.project(["Y"])

    @given(XY)
    def test_distinct(self, a):
        vector = BindingBatch.from_table(a).distinct().to_table()
        assert vector == a.distinct()

    @given(XY, st.randoms(use_true_random=False))
    def test_compress_matches_select(self, a, rng):
        mask = [rng.random() < 0.5 for _ in range(len(a))]
        keep = {i for i, flag in enumerate(mask) if flag}
        expected = BindingTable(
            a.columns, [row for i, row in enumerate(a.rows) if i in keep]
        )
        vector = BindingBatch.from_table(a).compress(mask).to_table()
        assert vector == expected


class TestSplitRoundTrip:
    @given(tables(("X", "Y"), max_size=20), st.integers(1, 8))
    def test_split_then_concat_is_identity(self, a, batch_size):
        parts = BindingBatch.from_table(a).split(batch_size)
        assert all(len(part) <= batch_size for part in parts)
        # order is preserved too, not just the multiset
        assert BindingBatch.concat(parts).to_table().rows == a.rows
