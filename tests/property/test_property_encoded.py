"""Dictionary-encoding properties: round-trips and kernel equivalence.

Three walls around the columnar core:

* a :class:`~repro.rdf.dictionary.TermDictionary` round-trips every
  term kind — URIs, blank nodes, variables, and literals of every
  datatype/language shape — through ``encode``/``decode``, including
  the wire codec's serialisation of a data packet's terms;
* the full wire cycle (sender id table → :meth:`DataPacket.stream`'s
  self-contained chunks → framed JSON → the root's channel manager, in
  any arrival order) is lossless, for every batch size;
* the kernels are value-agnostic: joining/filtering/concatenating id
  tables and decoding at the end yields exactly what the same
  operators — and the centralized evaluator's — produce on terms.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels import ChannelManager, DataPacket
from repro.core.algebra import Scan
from repro.execution.batch import BindingBatch, concat_tables
from repro.execution.encoded import EncodedTable
from repro.execution.operators import finalize_encoded
from repro.net import Message, Network
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import BNode, Literal, URI, Variable
from repro.rql.ast import Condition
from repro.rql.bindings import BindingTable
from repro.rql.evaluator import _condition_predicate
from repro.transport.codec import (
    decode_frame,
    decode_message,
    decode_payload,
    encode_frame,
    encode_message,
    encode_payload,
)
from repro.workloads.paper import paper_query_pattern, paper_schema

from ..idtables import cells, decode_cells, encode_cells, open_one

safe_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=16
)
uris = st.from_regex(r"[a-z]{1,8}", fullmatch=True).map(
    lambda s: URI(f"http://example.org/{s}")
)
#: every Term kind the model has, literals in every shape
terms = st.one_of(
    uris,
    st.from_regex(r"[a-z0-9]{1,8}", fullmatch=True).map(BNode),
    st.from_regex(r"[A-Z][a-z0-9]{0,6}", fullmatch=True).map(Variable),
    safe_text.map(Literal),
    st.integers(-10**9, 10**9).map(Literal),
    st.booleans().map(Literal),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(Literal),
    st.tuples(safe_text, st.sampled_from(["en", "el", "fr"])).map(
        lambda pair: Literal(pair[0], language=pair[1])
    ),
)


@st.composite
def binding_tables(draw, min_width: int = 1, max_width: int = 4):
    width = draw(st.integers(min_width, max_width))
    columns = tuple(f"V{i}" for i in range(width))
    rows = draw(st.lists(st.tuples(*([terms] * width)), max_size=12))
    return BindingTable(columns, [tuple(r) for r in rows])


# ----------------------------------------------------------------------
# dictionary round-trips
# ----------------------------------------------------------------------
@given(st.lists(terms, max_size=30))
def test_dictionary_round_trips_every_term_kind(values):
    d = TermDictionary()
    ids = [d.encode(t) for t in values]
    assert [d.decode(i) for i in ids] == values
    # interning: a second pass assigns the same ids
    assert [d.encode(t) for t in values] == ids
    assert len(d) == len(set(values))


@given(st.lists(terms, min_size=1, max_size=20))
def test_dictionary_entries_cover_requested_ids(values):
    """A packed table names each distinct term of its cells exactly
    once, in first-use order, and every cell points at its term."""
    d = TermDictionary()
    d.encode(URI("http://example.org/skew"))  # positions are not sender ids
    ids = d.encode_many(values)
    packed = EncodedTable.of_batch(BindingBatch(("V0",), {"V0": ids}), d.decode_many)
    assert list(packed.terms) == list(dict.fromkeys(values))
    assert [packed.terms[position] for position in packed.ids[0]] == values


def _packets(channel_id, table, sender, batch_size):
    """What a peer with dictionary ``sender`` ships for a term table."""
    return DataPacket.stream(
        channel_id, [encode_cells(table, sender)], sender, batch_size
    )


@given(st.lists(terms, max_size=12), st.integers(0, 10**6))
def test_dictionary_entries_survive_wire_codec(values, channel_seq):
    """A data packet's dictionary entries round-trip the transport
    codec exactly, for every term kind."""
    table = BindingTable(("V0",), [(value,) for value in values])
    (packet,) = _packets(f"P1#{channel_seq}", table, TermDictionary(), 64)
    decoded = decode_payload(encode_payload(packet))
    assert decoded == packet
    ((_, shipped),) = decoded.tables
    assert set(shipped.terms) == set(values)


# ----------------------------------------------------------------------
# full table cycle
# ----------------------------------------------------------------------
_SCAN = Scan((paper_query_pattern(paper_schema()).root,), "P2")


class _Sink:
    """A registered node that ignores deliveries."""

    def __init__(self, peer_id):
        self.peer_id = peer_id

    def receive(self, message, network):
        pass


def _over_the_wire(packet):
    """The packet as the live transport delivers it: framed JSON."""
    frame = encode_frame("msg", encode_message(Message("P2", "P1", packet)))
    return decode_message(decode_frame(frame)[1]).payload


@given(
    binding_tables(min_width=0),
    st.integers(1, 9),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60)
def test_encode_split_decode_cycle_is_lossless(table, batch_size, rng):
    """``stream`` → chunks → ``encode_frame`` → ``decode_frame`` →
    ``intern`` into the root's id space → terms gives the table back
    (zero-column and zero-row tables included), whatever order the
    self-contained chunks arrive in."""
    network = Network()
    network.register(_Sink("P1"))
    network.register(_Sink("P2"))
    root = ChannelManager("P1")
    root.dictionary.encode(URI("http://example.org/already-here"))  # skew the spaces
    results = []
    channel = open_one(root, network, _SCAN, lambda t, f: results.append((t, f)))
    packets = _packets(channel.channel_id, table, TermDictionary(), batch_size)
    assert sum(p.rows for p in packets) == len(table.rows)
    assert all(p.rows <= batch_size for p in packets)
    rng.shuffle(packets)
    for packet in packets:
        assert results == []
        root.on_data(_over_the_wire(packet))
    ((assembled, failed),) = results
    assert failed is None
    assert assembled.columns == table.columns
    assert all(isinstance(cell, int) for cell in cells(assembled))
    assert decode_cells(assembled, root.dictionary) == table


@given(binding_tables())
def test_encoded_table_survives_wire_codec(table):
    d = TermDictionary()
    encoded = EncodedTable.of_batch(encode_cells(table, d), d.decode_many)
    decoded = decode_payload(encode_payload(encoded))
    assert isinstance(decoded, EncodedTable)
    assert decoded == encoded


@given(binding_tables())
def test_cell_codecs_invert(table):
    d = TermDictionary()
    ids = encode_cells(table, d)
    assert all(isinstance(cell, int) for cell in cells(ids))
    assert decode_cells(ids, d).rows == table.rows


# ----------------------------------------------------------------------
# kernels on ids ≡ kernels on terms ≡ the centralized evaluator
# ----------------------------------------------------------------------
def _shared_world(draw_tables):
    """Encode several tables through one dictionary (as one peer does)."""
    d = TermDictionary()
    return d, [encode_cells(t, d) for t in draw_tables]


@given(binding_tables(max_width=3), binding_tables(max_width=3))
@settings(max_examples=60)
def test_encoded_join_equals_scalar_join(left, right):
    d, (enc_left, enc_right) = _shared_world([left, right])
    scalar = BindingBatch.from_table(left).hash_join(
        BindingBatch.from_table(right)
    ).to_table()
    encoded = enc_left.hash_join(enc_right)
    assert decode_cells(encoded, d).rows == scalar.rows
    assert encoded.columns == scalar.columns


@given(st.lists(binding_tables(min_width=2, max_width=2), min_size=1, max_size=4))
@settings(max_examples=60)
def test_encoded_concat_equals_scalar_concat(tables):
    d, encoded_tables = _shared_world(tables)
    scalar = concat_tables([BindingBatch.from_table(t) for t in tables]).to_table()
    encoded = concat_tables(encoded_tables)
    assert decode_cells(encoded, d).rows == scalar.rows


def _oracle_finalize(table, projections, condition):
    return table.select(_condition_predicate(condition)).project(projections).distinct()


@given(
    binding_tables(min_width=2, max_width=3),
    st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "like"]),
    terms,
    st.booleans(),
)
@settings(max_examples=80)
def test_encoded_finalize_equals_scalar_finalize(table, operator, value, var_rhs):
    """Filter + project + distinct on ids, decoding per distinct id,
    matches the centralized evaluator's row-at-a-time operators row
    for row."""
    if var_rhs:
        condition = Condition("V0", operator, Variable("V1"), value_is_variable=True)
    else:
        condition = Condition("V0", operator, value)
    projections = list(table.columns[:2])
    d = TermDictionary()
    ids = encode_cells(table, d)
    scalar = _oracle_finalize(table, projections, condition)
    encoded = finalize_encoded(ids, d, projections, [condition]).to_terms()
    assert encoded.columns == scalar.columns
    assert encoded.rows == scalar.rows


def test_ordered_comparison_with_mixed_term_kinds_rejects_rows():
    """Regression (found by the property above): ordering a boolean
    literal against a URI used to raise AttributeError out of
    ``URI.__lt__`` instead of the TypeError the incomparable-types rule
    maps to False — in the centralized evaluator and the engine alike."""
    table = BindingTable(
        ("V0", "V1"),
        [
            (Literal(True), URI("http://example.org/x")),
            (URI("http://example.org/b"), Literal(False)),
        ],
    )
    condition = Condition("V0", ">", URI("http://example.org/a"))
    scalar = _oracle_finalize(table, ["V0", "V1"], condition)
    d = TermDictionary()
    encoded = finalize_encoded(
        encode_cells(table, d), d, ["V0", "V1"], [condition]
    ).to_terms()
    # the boolean row is incomparable (rejected); the URI row compares
    assert scalar.rows == [(URI("http://example.org/b"), Literal(False))]
    assert encoded.rows == scalar.rows
