"""Active-schemas: fine-grained intensional peer advertisements.

An active-schema is "the subset of a community RDF/S schema for which
all classes and properties are (materialised scenario) or can be
(virtual scenario) populated in a peer base" (paper Section 2.2).  We
represent it as a set of :class:`~repro.rql.pattern.SchemaPath` entries
— one per populated property, with its effective end-point classes —
plus the set of populated classes.  Because queries are represented the
same way, routing reduces to per-path subsumption checks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional

from ..errors import SchemaError
from ..rdf.graph import Graph
from ..rdf.schema import Schema
from ..rdf.terms import URI
from ..rdf.vocabulary import TYPE
from ..rql.pattern import SchemaPath
from .view import ViewDefinition


class ActiveSchema:
    """The advertised intensional content of one peer base.

    Args:
        schema_uri: The namespace URI of the community schema this
            advertisement commits to (the SON identifier).
        paths: Populated schema paths.
        classes: Populated classes (beyond those implied by paths).
        peer_id: Advertising peer, once known.
    """

    def __init__(
        self,
        schema_uri: str,
        paths: Iterable[SchemaPath] = (),
        classes: Iterable[URI] = (),
        peer_id: Optional[str] = None,
    ):
        self.schema_uri = schema_uri
        self._paths: FrozenSet[SchemaPath] = frozenset(paths)
        implied = {p.domain for p in self._paths} | {p.range for p in self._paths}
        self._classes: FrozenSet[URI] = frozenset(classes) | frozenset(
            c for c in implied if isinstance(c, URI)
        )
        self.peer_id = peer_id

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_view(
        cls,
        view: ViewDefinition,
        schema: Schema,
        peer_id: Optional[str] = None,
        default_namespaces: Optional[Mapping[str, str]] = None,
    ) -> "ActiveSchema":
        """Derive the active-schema of an RVL view (virtual scenario).

        Property atoms contribute schema paths with the property's
        declared end points; class atoms contribute populated classes.
        """
        classes, properties = view.head_terms(schema, default_namespaces)
        paths = []
        for prop in properties:
            definition = schema.property_def(prop)
            paths.append(SchemaPath(definition.domain, prop, definition.range))
        return cls(schema.namespace.uri, paths, classes.keys(), peer_id)

    @classmethod
    def from_base(
        cls, base: Graph, schema: Schema, peer_id: Optional[str] = None
    ) -> "ActiveSchema":
        """Read a materialised base's populated schema fragment off its
        indexes, at a cost of one lookup per schema term.

        A property is populated when at least one statement asserts it
        (the predicate index holds it); a class is populated when at
        least one resource is typed with it (an ``rdf:type`` statement
        in its object index) — the materialised scenario of Section 2.2.
        """
        paths = []
        for prop in schema.properties:
            if base.has(predicate=prop):
                definition = schema.property_def(prop)
                paths.append(SchemaPath(definition.domain, prop, definition.range))
        classes = [c for c in schema.classes if base.has(None, TYPE, c)]
        return cls(schema.namespace.uri, paths, classes, peer_id)

    # ------------------------------------------------------------------
    # content
    # ------------------------------------------------------------------
    @property
    def paths(self) -> FrozenSet[SchemaPath]:
        """The populated schema paths."""
        return self._paths

    @property
    def classes(self) -> FrozenSet[URI]:
        """The populated classes (including path end points)."""
        return self._classes

    def covers_property(self, prop: URI) -> bool:
        return any(p.property == prop for p in self._paths)

    def is_empty(self) -> bool:
        return not self._paths and not self._classes

    def merge(self, other: "ActiveSchema") -> "ActiveSchema":
        """Union of two advertisements for the same schema."""
        if other.schema_uri != self.schema_uri:
            raise SchemaError(
                f"cannot merge advertisements of {self.schema_uri} and {other.schema_uri}"
            )
        return ActiveSchema(
            self.schema_uri,
            self._paths | other._paths,
            self._classes | other._classes,
            self.peer_id,
        )

    # ------------------------------------------------------------------
    # wire format (what peers broadcast / pull)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """A JSON-compatible advertisement payload."""
        return {
            "schema": self.schema_uri,
            "peer": self.peer_id,
            "paths": sorted(
                [p.domain.value, p.property.value, p.range.value] for p in self._paths
            ),
            "classes": sorted(c.value for c in self._classes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ActiveSchema":
        """Rebuild an advertisement from its wire payload."""
        paths = [
            SchemaPath(URI(d), URI(p), URI(r)) for d, p, r in payload.get("paths", [])
        ]
        classes = [URI(c) for c in payload.get("classes", [])]
        return cls(payload["schema"], paths, classes, payload.get("peer"))

    def size_bytes(self) -> int:
        """Approximate advertisement wire size, used to charge bandwidth."""
        path_bytes = sum(
            len(p.domain.value) + len(p.property.value) + len(p.range.value) + 6
            for p in self._paths
        )
        class_bytes = sum(len(c.value) + 2 for c in self._classes)
        return len(self.schema_uri) + path_bytes + class_bytes + 16

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[SchemaPath]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ActiveSchema)
            and self.schema_uri == other.schema_uri
            and self._paths == other._paths
            and self._classes == other._classes
        )

    def __hash__(self) -> int:
        return hash((self.schema_uri, self._paths, self._classes))

    def __repr__(self) -> str:
        owner = self.peer_id or "?"
        rendered = ", ".join(sorted(str(p) for p in self._paths))
        return f"ActiveSchema({owner}: {rendered})"
