"""Advertisements read off a base's indexes equal the scan definition.

:meth:`ActiveSchema.from_base` and the simple peer's advertisement
footprint look each schema property up in the graph's predicate index
and each schema class in its object index, where the definition
(Section 2.2, materialised scenario) scans the base: a property is
populated when some statement asserts it, a class when some resource is
typed with it.  On generated bases — schema and foreign predicates,
typed resources, class URIs used as plain objects, literals — and after
removals that empty index buckets, the two must agree; so must
:meth:`Graph.has` and a scan of :meth:`Graph.triples`.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.peers.base import PeerBase
from repro.peers.simple import AdvertisementTracker
from repro.rdf import Graph, Literal, Triple, URI
from repro.rdf.vocabulary import TYPE
from repro.rql.pattern import SchemaPath
from repro.rvl import ActiveSchema
from repro.workloads.paper import paper_schema

SCHEMA = paper_schema()
CLASSES = sorted(SCHEMA.classes)
PROPERTIES = sorted(SCHEMA.properties)
RESOURCES = [URI(f"http://w/r{i}") for i in range(6)]
#: predicates beside the schema's: typing, and one no schema declares
PREDICATES = PROPERTIES + [TYPE, URI("http://w/foreign")]

statements = st.builds(
    Triple,
    st.sampled_from(RESOURCES + CLASSES),
    st.sampled_from(PREDICATES),
    st.one_of(
        st.sampled_from(RESOURCES + CLASSES + [URI("http://w/NotAClass")]),
        st.integers(0, 3).map(Literal),
    ),
)


@st.composite
def bases(draw) -> Graph:
    """A base after some additions and then removals: some of what was
    added is taken out again, emptying buckets of the three indexes."""
    added = draw(st.lists(statements, max_size=25))
    graph = Graph(added)
    if added:
        for triple in draw(st.lists(st.sampled_from(added), max_size=len(added))):
            graph.remove_triple(triple)
    return graph


def scanned(graph: Graph) -> ActiveSchema:
    """The definition: scan the base's statements."""
    paths = [
        SchemaPath(SCHEMA.property_def(p).domain, p, SCHEMA.property_def(p).range)
        for p in PROPERTIES
        if any(True for _ in graph.triples(None, p, None))
    ]
    classes = [
        t.object
        for t in graph.triples(None, TYPE, None)
        if isinstance(t.object, URI) and SCHEMA.has_class(t.object)
    ]
    return ActiveSchema(SCHEMA.namespace.uri, paths, classes, "P1")


@given(bases())
@settings(max_examples=300, deadline=None)
def test_from_base_equals_the_scan_definition(graph):
    advertised = ActiveSchema.from_base(graph, SCHEMA, "P1")
    reference = scanned(graph)
    assert advertised.paths == reference.paths
    assert advertised.classes == reference.classes
    assert advertised.to_dict() == reference.to_dict()


@given(bases())
@settings(max_examples=200, deadline=None)
def test_footprint_equals_the_populated_properties(graph):
    tracker = AdvertisementTracker(PeerBase(graph, SCHEMA))
    assert tracker._footprint() == {p.property for p in scanned(graph).paths}


@given(bases(), st.sampled_from(RESOURCES + CLASSES + [None]),
       st.sampled_from(PREDICATES + [None]),
       st.sampled_from(RESOURCES + CLASSES + [Literal(0), None]))
@settings(max_examples=300, deadline=None)
def test_has_equals_a_scan(graph, subject, predicate, obj):
    expected = any(True for _ in graph.triples(subject, predicate, obj))
    assert graph.has(subject, predicate, obj) is expected
