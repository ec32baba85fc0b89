"""Live-data properties: lossless update wire payloads, and
incremental maintenance equivalent to recomputation.

Three families:

* **codec round-trips** — every update-plane payload (insert/delete
  records over every Term kind, view redefinitions, batches, acks,
  advertisement deltas, continuous-query control/push) survives
  ``decode(encode(m))`` exactly, and re-encoding is canonical;
* **delta algebra** — ``apply_advertisement_delta(old,
  advertisement_delta(old, new)) == new`` for arbitrary advertisement
  pairs, and binding-table delta/fold are inverses;
* **apply ≡ rebuild** — under arbitrary seeded update interleavings,
  the incrementally maintained active schema equals a from-scratch
  ``active_schema`` re-derivation after every batch, holders folding
  only deltas reconstruct the same advertisement, and the patched
  ``EncodedBase`` id columns are multiset-identical to a fresh encode
  of the final graph.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.encoded import EncodedBase, EncodedTable
from repro.livedata import (
    LiveMaintainer,
    UpdateStream,
    active_schema_digest,
    advertisement_delta,
    apply_advertisement_delta,
)
from repro.livedata.continuous import fold_delta, table_delta
from repro.livedata.updates import (
    AdvertiseDelta,
    ContinuousCancel,
    ContinuousSubscribe,
    ContinuousUpdate,
    DeleteTriple,
    InsertTriple,
    RedefineViews,
    RefreshStanding,
    UpdateAck,
    UpdateBatch,
)
from repro.net.message import Message
from repro.peers.base import PeerBase
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import BNode, Literal, URI, Variable
from repro.rdf.triple import Triple
from repro.rql.bindings import BindingTable
from repro.rql.pattern import SchemaPath
from repro.rvl.active_schema import ActiveSchema
from repro.transport.codec import decode_message, encode_message
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.schema_gen import generate_schema

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
peer_ids = st.sampled_from(["P1", "P2", "P3", "SP"])
query_ids = st.from_regex(r"[A-Za-z0-9_-]{1,12}", fullmatch=True)
safe_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=24
)
uris = st.from_regex(r"[a-z]{1,8}", fullmatch=True).map(
    lambda s: URI(f"http://example.org/{s}")
)
#: every Term kind an update record may carry
terms = st.one_of(
    uris,
    st.from_regex(r"[a-z0-9]{1,8}", fullmatch=True).map(BNode),
    safe_text.map(Literal),
    st.integers(-10**9, 10**9).map(Literal),
    st.booleans().map(Literal),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(Literal),
    st.tuples(safe_text, st.sampled_from(["en", "el"])).map(
        lambda pair: Literal(pair[0], language=pair[1])
    ),
)
subjects = st.one_of(uris, st.from_regex(r"[a-z0-9]{1,8}", fullmatch=True).map(BNode))
triples = st.builds(Triple, subjects, uris, terms)

update_records = st.one_of(
    st.builds(InsertTriple, triples),
    st.builds(DeleteTriple, triples),
    st.builds(RedefineViews, st.lists(safe_text, max_size=3).map(tuple)),
)
schema_paths = st.builds(SchemaPath, uris, uris, uris)
advertise_deltas = st.builds(
    AdvertiseDelta,
    st.just("http://example.org/schema#"),
    peer_ids,
    added_paths=st.lists(schema_paths, max_size=3, unique=True).map(tuple),
    removed_paths=st.lists(schema_paths, max_size=3, unique=True).map(tuple),
    added_classes=st.lists(uris, max_size=3, unique=True).map(tuple),
    removed_classes=st.lists(uris, max_size=3, unique=True).map(tuple),
)


@st.composite
def binding_tables(draw):
    width = draw(st.integers(1, 3))
    columns = tuple(f"V{i}" for i in range(width))
    rows = draw(st.lists(st.tuples(*([terms] * width)).map(tuple), max_size=8))
    return BindingTable(columns, rows)


livedata_payloads = st.one_of(
    update_records,
    st.builds(
        UpdateBatch,
        peer_ids,
        st.integers(1, 9),
        st.lists(update_records, max_size=5).map(tuple),
    ),
    st.builds(UpdateAck, peer_ids, st.integers(1, 9), st.integers(0, 50)),
    advertise_deltas,
    st.builds(ContinuousSubscribe, query_ids, safe_text, peer_ids),
    st.builds(
        ContinuousUpdate,
        query_ids,
        binding_tables().map(EncodedTable.of_terms),
        binding_tables().map(EncodedTable.of_terms),
        st.integers(0, 9),
        error=st.one_of(st.none(), safe_text),
    ),
    st.builds(ContinuousCancel, query_ids),
    st.builds(RefreshStanding, st.integers(1, 9)),
)


@st.composite
def livedata_messages(draw):
    return Message(draw(peer_ids), draw(peer_ids), draw(livedata_payloads))


# ----------------------------------------------------------------------
# codec round-trips
# ----------------------------------------------------------------------
@given(livedata_messages())
@settings(max_examples=200, deadline=None)
def test_update_payloads_round_trip_losslessly(message):
    fields = json.loads(json.dumps(encode_message(message)))
    decoded = decode_message(fields)
    assert type(decoded.payload) is type(message.payload)
    if isinstance(message.payload, ContinuousUpdate):
        assert decoded.payload.query_id == message.payload.query_id
        assert decoded.payload.added == message.payload.added
        assert decoded.payload.removed == message.payload.removed
        assert decoded.payload.revision == message.payload.revision
        assert decoded.payload.error == message.payload.error
    else:
        assert decoded.payload == message.payload


@given(livedata_messages())
@settings(max_examples=200, deadline=None)
def test_update_payload_encoding_is_canonical(message):
    fields = json.loads(json.dumps(encode_message(message)))
    assert encode_message(decode_message(fields)) == fields


# ----------------------------------------------------------------------
# delta algebra
# ----------------------------------------------------------------------
@st.composite
def advertisement_pairs(draw):
    """Two arbitrary advertisements over the same schema."""
    pool_paths = draw(st.lists(schema_paths, min_size=1, max_size=6, unique=True))
    pool_classes = draw(st.lists(uris, max_size=5, unique=True))
    uri = "http://example.org/schema#"

    def pick(pool):
        return frozenset(
            item for item in pool if draw(st.booleans())
        )

    old = ActiveSchema(uri, pick(pool_paths), pick(pool_classes), "P1")
    new = ActiveSchema(uri, pick(pool_paths), pick(pool_classes), "P1")
    return old, new


@given(advertisement_pairs())
@settings(max_examples=200, deadline=None)
def test_advertisement_delta_is_exact_inverse(pair):
    old, new = pair
    delta = advertisement_delta(old, new)
    reconstructed = apply_advertisement_delta(old, delta)
    assert reconstructed == new
    assert active_schema_digest([reconstructed]) == active_schema_digest([new])
    if old == new:
        assert delta.is_empty()


@given(binding_tables(), binding_tables())
@settings(max_examples=200, deadline=None)
def test_table_delta_and_fold_are_inverses(previous, current):
    # give both tables the same columns (delta is per standing query)
    current = BindingTable(
        previous.columns,
        [row[: len(previous.columns)] for row in current.rows]
        if len(current.columns) >= len(previous.columns)
        else [],
    )
    added, removed = table_delta(previous, current)
    update = ContinuousUpdate(
        "q", EncodedTable.of_terms(added), EncodedTable.of_terms(removed), 1
    )
    assert fold_delta(previous, update) == current


# ----------------------------------------------------------------------
# apply ≡ rebuild, under seeded interleavings
# ----------------------------------------------------------------------
def _workload_bases(seed):
    synthetic = generate_schema(
        chain_length=3, refinement_fraction=0.0, noise_properties=1, seed=seed
    )
    distribution = list(Distribution)[seed % len(list(Distribution))]
    generated = generate_bases(
        synthetic,
        ["P1", "P2"],
        distribution,
        statements_per_segment=8,
        shared_pool=4,
        seed=seed,
    )
    return synthetic, generated.bases


@given(
    seed=st.integers(0, 10**6),
    revisions=st.integers(1, 4),
    rate=st.floats(0.02, 0.4),
    view_probability=st.floats(0.0, 0.6),
)
@settings(max_examples=40, deadline=None)
def test_incremental_schema_equals_recompute(seed, revisions, rate, view_probability):
    """After every batch of an arbitrary seeded interleaving, the
    maintainer's advertisement equals a from-scratch re-derivation and
    a delta-folding holder reconstructs it exactly."""
    synthetic, bases = _workload_bases(seed % 50)
    stream = UpdateStream(
        synthetic.schema,
        bases,
        seed=seed,
        revisions=revisions,
        rate=rate,
        view_probability=view_probability,
    )
    peer_bases = {p: PeerBase(bases[p], synthetic.schema) for p in bases}
    maintainers = {p: LiveMaintainer(peer_bases[p], p) for p in bases}
    holder_view = {p: maintainers[p].current for p in bases}
    for batch in stream.all_batches():
        result = maintainers[batch.target].apply(batch)
        fresh = peer_bases[batch.target].active_schema(batch.target)
        assert maintainers[batch.target].current == fresh
        if result.delta is not None:
            holder_view[batch.target] = apply_advertisement_delta(
                holder_view[batch.target], result.delta
            )
        assert active_schema_digest([holder_view[batch.target]]) == (
            active_schema_digest([fresh])
        )
    # end state: stream shadows and maintained bases agree
    for peer in bases:
        assert set(peer_bases[peer].graph.triples()) == set(
            stream.final_shadows[peer].triples()
        )


@given(seed=st.integers(0, 10**6), revisions=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_patched_encoded_columns_equal_rebuild(seed, revisions):
    """The in-place id-column patch: after an arbitrary interleaving,
    every schema path's decoded column content is multiset-identical
    to a fresh ``EncodedBase`` over the final graph."""
    synthetic, bases = _workload_bases(seed % 50)
    stream = UpdateStream(
        synthetic.schema, bases, seed=seed, revisions=revisions, rate=0.3
    )
    peer_bases = {p: PeerBase(bases[p], synthetic.schema) for p in bases}
    paths = [
        SchemaPath(definition.domain, prop, definition.range)
        for prop in sorted(synthetic.schema.properties, key=lambda u: u.value)
        for definition in [synthetic.schema.property_def(prop)]
    ]
    for base in peer_bases.values():
        twin = base.encoded_base(TermDictionary())
        for path in paths:
            twin.pattern_columns(path)  # every column built up front
    maintainers = {p: LiveMaintainer(peer_bases[p], p) for p in bases}
    for batch in stream.all_batches():
        maintainers[batch.target].apply(batch)
    for peer, base in peer_bases.items():
        patched = base._encoded
        rebuilt = EncodedBase(base.graph, synthetic.schema, TermDictionary())
        for path in paths:
            got_s, got_o = patched.pattern_columns(path)
            want_s, want_o = rebuilt.pattern_columns(path)
            got = sorted(
                (patched.dictionary.decode(s).n3(), patched.dictionary.decode(o).n3())
                for s, o in zip(got_s, got_o)
            )
            want = sorted(
                (rebuilt.dictionary.decode(s).n3(), rebuilt.dictionary.decode(o).n3())
                for s, o in zip(want_s, want_o)
            )
            assert got == want, f"{peer} column {path.property.value} diverged"
