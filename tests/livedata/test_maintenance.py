"""Unit tests for incremental active-schema maintenance."""

from repro.livedata import LiveMaintainer, covering_view_text
from repro.livedata.updates import (
    DeleteTriple,
    InsertTriple,
    RedefineViews,
    UpdateBatch,
)
from repro.peers.base import PeerBase
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import URI
from repro.rdf.triple import Triple
from repro.workloads.paper import N1, paper_peer_bases, paper_schema

SCHEMA = paper_schema()


def _maintainer(peer_id="P1"):
    base = PeerBase(paper_peer_bases()[peer_id], SCHEMA)
    return base, LiveMaintainer(base, peer_id)


class TestFootprintEconomy:
    def test_extensional_churn_stays_silent(self):
        """Inserting a statement of an already-populated property moves
        data, not the footprint: no advertisement delta is pushed."""
        base, maintainer = _maintainer()
        populated = next(iter(maintainer.current.paths)).property
        fresh = Triple(URI("urn:t:new-s"), populated, URI("urn:t:new-o"))
        result = maintainer.apply(UpdateBatch("P1", 1, (InsertTriple(fresh),)))
        assert result.applied == 1
        assert result.delta is None
        assert maintainer.current == base.active_schema("P1")

    def test_idempotent_reinsert_applies_nothing(self):
        base, maintainer = _maintainer()
        existing = next(base.graph.triples(None, None, None))
        result = maintainer.apply(
            UpdateBatch("P1", 1, (InsertTriple(existing),))
        )
        assert result.applied == 0
        assert result.delta is None

    def test_missing_delete_applies_nothing(self):
        _, maintainer = _maintainer()
        ghost = Triple(URI("urn:t:ghost"), N1.prop1, URI("urn:t:ghost-o"))
        result = maintainer.apply(UpdateBatch("P1", 1, (DeleteTriple(ghost),)))
        assert result.applied == 0
        assert result.delta is None


class TestFootprintMoves:
    def test_emptying_a_property_retracts_its_path(self):
        base, maintainer = _maintainer()
        target = next(iter(maintainer.current.paths)).property
        victims = list(base.graph.triples(None, target, None))
        result = maintainer.apply(
            UpdateBatch("P1", 1, tuple(DeleteTriple(t) for t in victims))
        )
        assert result.delta is not None
        assert any(p.property == target for p in result.delta.removed_paths)
        assert maintainer.current == base.active_schema("P1")

    def test_populating_a_property_advertises_its_path(self):
        base, maintainer = _maintainer("P2")
        advertised = {p.property for p in maintainer.current.paths}
        silent = next(
            p for p in SCHEMA.properties if p not in advertised
        )
        fresh = Triple(URI("urn:t:s"), silent, URI("urn:t:o"))
        result = maintainer.apply(
            UpdateBatch("P2", 1, (InsertTriple(fresh),))
        )
        assert result.delta is not None
        assert any(p.property == silent for p in result.delta.added_paths)
        assert maintainer.current == base.active_schema("P2")


class TestViewRedefinition:
    def test_redefinition_changes_footprint_and_flags_batch(self):
        base, maintainer = _maintainer()
        properties = sorted(
            {p.property for p in maintainer.current.paths},
            key=lambda u: u.value,
        )[:1]
        text = covering_view_text(SCHEMA, properties, prefix="n1")
        result = maintainer.apply(
            UpdateBatch("P1", 1, (RedefineViews((text,)),))
        )
        assert result.views_changed
        assert maintainer.current == base.active_schema("P1")

    def test_reverting_to_materialised_rescans(self):
        base, maintainer = _maintainer()
        properties = sorted(
            {p.property for p in maintainer.current.paths},
            key=lambda u: u.value,
        )[:1]
        text = covering_view_text(SCHEMA, properties, prefix="n1")
        maintainer.apply(UpdateBatch("P1", 1, (RedefineViews((text,)),)))
        result = maintainer.apply(UpdateBatch("P1", 2, (RedefineViews(()),)))
        assert result.views_changed
        assert base.views == ()
        assert maintainer.current == base.active_schema("P1")


class TestEncodedPatching:
    def test_warm_encoded_twin_is_patched_in_place(self):
        from repro.rql.pattern import SchemaPath

        base, maintainer = _maintainer()
        encoded = base.encoded_base(TermDictionary())
        populated = next(iter(maintainer.current.paths)).property
        definition = SCHEMA.property_def(populated)
        path = SchemaPath(definition.domain, populated, definition.range)
        encoded.pattern_columns(path)  # a scan built the column
        fresh = Triple(URI("urn:t:enc-s"), populated, URI("urn:t:enc-o"))
        version_before = encoded._version
        maintainer.apply(UpdateBatch("P1", 1, (InsertTriple(fresh),)))
        # patched forward, not wiped: version tracked the graph
        assert encoded._version == base.graph.version
        assert encoded._version != version_before
        subjects, objects = encoded.pattern_columns(path)
        sid = encoded.dictionary.encode(fresh.subject)
        oid = encoded.dictionary.encode(fresh.object)
        assert (sid, oid) in set(zip(subjects, objects))
