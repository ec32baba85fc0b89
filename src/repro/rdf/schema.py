"""The RDF/S schema model: class and property hierarchies.

A :class:`Schema` captures the intensional part of a community RDF/S
vocabulary — the classes, the properties with their domain and range,
and the two specialisation DAGs (``rdfs:subClassOf`` and
``rdfs:subPropertyOf``).  Subsumption queries (`is_subclass`,
`is_subproperty`) are reflexive-transitive reachability tests with
memoised ancestor sets; they are the primitive the SQPeer routing
algorithm's ``isSubsumed`` check is built on (paper Section 2.3).
"""

from __future__ import annotations

import base64
import hashlib
import json
import weakref
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from ..errors import SchemaError
from .graph import Graph
from .terms import Namespace, URI
from .vocabulary import (
    CLASS,
    DOMAIN,
    LITERAL_CLASS,
    PROPERTY,
    RANGE,
    RESOURCE,
    SUBCLASSOF,
    SUBPROPERTYOF,
    TYPE,
)

#: every schema whose fingerprint this process computed, by fingerprint
_FINGERPRINTED: "weakref.WeakValueDictionary[str, Schema]" = weakref.WeakValueDictionary()


def fingerprinted(fingerprint: str) -> Optional["Schema"]:
    """A schema of this process with that :attr:`Schema.fingerprint`
    (one computed it), or ``None``."""
    schema = _FINGERPRINTED.get(fingerprint)
    return schema if schema is not None and schema.fingerprint == fingerprint else None


class PropertyDef:
    """A property declaration: name plus domain and range classes."""

    __slots__ = ("uri", "domain", "range")

    def __init__(self, uri: URI, domain: URI, range_: URI):
        object.__setattr__(self, "uri", uri)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "range", range_)

    def __setattr__(self, name, val):
        raise AttributeError("PropertyDef is immutable")

    def __repr__(self) -> str:
        return (
            f"PropertyDef({self.uri.local_name}: "
            f"{self.domain.local_name} -> {self.range.local_name})"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PropertyDef)
            and self.uri == other.uri
            and self.domain == other.domain
            and self.range == other.range
        )

    def __hash__(self) -> int:
        return hash((self.uri, self.domain, self.range))


class Schema:
    """An RDF/S schema with subsumption reasoning.

    Args:
        namespace: The namespace that identifies this community schema
            (e.g. ``n1`` in the paper's Figure 1).
        name: Optional human-readable name.

    Example — the paper's Figure 1 schema:
        >>> from repro.rdf import Namespace, Schema
        >>> n1 = Namespace("http://example.org/n1#")
        >>> s = Schema(n1)
        >>> for c in ("C1", "C2", "C3", "C4", "C5", "C6"):
        ...     s.add_class(n1[c])
        >>> s.add_subclass(n1.C5, n1.C1)
        >>> s.add_subclass(n1.C6, n1.C2)
        >>> s.add_property(n1.prop1, n1.C1, n1.C2)
        >>> s.add_property(n1.prop4, n1.C5, n1.C6, subproperty_of=n1.prop1)
        >>> s.is_subproperty(n1.prop4, n1.prop1)
        True
    """

    def __init__(self, namespace: Namespace, name: str = ""):
        self.namespace = namespace
        self.name = name or namespace.uri
        self._classes: Set[URI] = set()
        self._properties: Dict[URI, PropertyDef] = {}
        self._super_classes: Dict[URI, Set[URI]] = {}
        self._super_properties: Dict[URI, Set[URI]] = {}
        self._class_ancestors: Dict[URI, FrozenSet[URI]] = {}
        self._property_ancestors: Dict[URI, FrozenSet[URI]] = {}
        self._fingerprint: Optional[str] = None
        self._vocab: Optional[Tuple[Tuple[URI, ...], Dict[URI, int]]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_class(self, cls: URI, subclass_of: Optional[Iterable[URI]] = None) -> URI:
        """Declare a class, optionally as a subclass of existing classes."""
        self._classes.add(cls)
        self._super_classes.setdefault(cls, set())
        if subclass_of:
            for parent in subclass_of:
                self.add_subclass(cls, parent)
        self._invalidate_caches()
        return cls

    def add_subclass(self, child: URI, parent: URI) -> None:
        """Assert ``child rdfs:subClassOf parent``; both must be declared."""
        for cls in (child, parent):
            if cls not in self._classes:
                raise SchemaError(f"undeclared class {cls}")
        if child == parent:
            raise SchemaError(f"class {child} cannot be its own subclass")
        self._super_classes.setdefault(child, set()).add(parent)
        self._assert_acyclic(child, self._super_classes, "class")
        self._invalidate_caches()

    def add_property(
        self,
        prop: URI,
        domain: URI,
        range_: URI,
        subproperty_of: Optional[URI] = None,
    ) -> PropertyDef:
        """Declare a property with its domain and range classes.

        ``range_`` may be ``rdfs:Literal`` (for attribute-like properties)
        or any declared class.
        """
        if domain not in self._classes:
            raise SchemaError(f"undeclared domain class {domain}")
        if range_ != LITERAL_CLASS and range_ not in self._classes:
            raise SchemaError(f"undeclared range class {range_}")
        definition = PropertyDef(prop, domain, range_)
        self._properties[prop] = definition
        self._super_properties.setdefault(prop, set())
        if subproperty_of is not None:
            self.add_subproperty(prop, subproperty_of)
        self._invalidate_caches()
        return definition

    def add_subproperty(self, child: URI, parent: URI) -> None:
        """Assert ``child rdfs:subPropertyOf parent``; both must be declared."""
        for prop in (child, parent):
            if prop not in self._properties:
                raise SchemaError(f"undeclared property {prop}")
        if child == parent:
            raise SchemaError(f"property {child} cannot be its own subproperty")
        self._super_properties.setdefault(child, set()).add(parent)
        self._assert_acyclic(child, self._super_properties, "property")
        self._invalidate_caches()

    def _assert_acyclic(self, start: URI, edges: Dict[URI, Set[URI]], kind: str) -> None:
        """Reject hierarchies that would introduce a cycle through *start*."""
        stack, seen = [start], set()
        while stack:
            node = stack.pop()
            for parent in edges.get(node, ()):
                if parent == start:
                    raise SchemaError(f"cyclic {kind} hierarchy through {start}")
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)

    def _invalidate_caches(self) -> None:
        self._class_ancestors.clear()
        self._property_ancestors.clear()
        self._fingerprint = self._vocab = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def classes(self) -> FrozenSet[URI]:
        """The declared classes."""
        return frozenset(self._classes)

    @property
    def properties(self) -> FrozenSet[URI]:
        """The declared property URIs."""
        return frozenset(self._properties)

    def canonical(self) -> dict:
        """The schema as sorted JSON-ready lists: equal for equal
        schemas, whatever order they were built in."""
        return {
            "uri": self.namespace.uri,
            "name": self.name,
            "classes": sorted(c.value for c in self._classes),
            "properties": sorted(
                [p.uri.value, p.domain.value, p.range.value] for p in self
            ),
            "subclass": sorted(
                [child.value, parent.value]
                for child, parents in self._super_classes.items()
                for parent in parents
            ),
            "subproperty": sorted(
                [child.value, parent.value]
                for child, parents in self._super_properties.items()
                for parent in parents
            ),
        }

    @property
    def fingerprint(self) -> str:
        """sha256 of :meth:`canonical` (unpadded url-safe base64, 43
        characters): the same for every copy of this schema in every
        process, so a message can name the schema by it.  Computed once
        (again after the schema changes)."""
        if self._fingerprint is None:
            text = json.dumps(self.canonical(), separators=(",", ":"))
            digest = hashlib.sha256(text.encode()).digest()
            self._fingerprint = base64.urlsafe_b64encode(digest).rstrip(b"=").decode()
            _FINGERPRINTED[self._fingerprint] = self
        return self._fingerprint

    def _vocabulary(self) -> Tuple[Tuple[URI, ...], Dict[URI, int]]:
        if self._vocab is None:
            terms = tuple(dict.fromkeys(
                [*sorted(self._classes), LITERAL_CLASS, *sorted(self._properties)]
            ))
            self._vocab = (terms, {term: index for index, term in enumerate(terms)})
        return self._vocab

    @property
    def terms(self) -> Tuple[URI, ...]:
        """The vocabulary in canonical order — the classes, then
        ``rdfs:Literal``, then the properties, each sorted — so that a
        position names the same term in every copy of the schema."""
        return self._vocabulary()[0]

    @property
    def term_ids(self) -> Dict[URI, int]:
        """Each term of :attr:`terms` to its position."""
        return self._vocabulary()[1]

    def property_def(self, prop: URI) -> PropertyDef:
        """The :class:`PropertyDef` for ``prop`` (raises if undeclared)."""
        try:
            return self._properties[prop]
        except KeyError:
            raise SchemaError(f"undeclared property {prop}") from None

    def has_class(self, cls: URI) -> bool:
        return cls in self._classes

    def has_property(self, prop: URI) -> bool:
        return prop in self._properties

    def domain_of(self, prop: URI) -> URI:
        return self.property_def(prop).domain

    def range_of(self, prop: URI) -> URI:
        return self.property_def(prop).range

    # ------------------------------------------------------------------
    # subsumption
    # ------------------------------------------------------------------
    def superclasses(self, cls: URI) -> FrozenSet[URI]:
        """All ancestors of ``cls`` including itself (reflexive closure)."""
        cached = self._class_ancestors.get(cls)
        if cached is None:
            cached = self._ancestors(cls, self._super_classes)
            self._class_ancestors[cls] = cached
        return cached

    def superproperties(self, prop: URI) -> FrozenSet[URI]:
        """All ancestors of ``prop`` including itself (reflexive closure)."""
        cached = self._property_ancestors.get(prop)
        if cached is None:
            cached = self._ancestors(prop, self._super_properties)
            self._property_ancestors[prop] = cached
        return cached

    @staticmethod
    def _ancestors(start: URI, edges: Dict[URI, Set[URI]]) -> FrozenSet[URI]:
        result = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for parent in edges.get(node, ()):
                if parent not in result:
                    result.add(parent)
                    stack.append(parent)
        return frozenset(result)

    def subclasses(self, cls: URI) -> FrozenSet[URI]:
        """All descendants of ``cls`` including itself."""
        return frozenset(c for c in self._classes if cls in self.superclasses(c))

    def subproperties(self, prop: URI) -> FrozenSet[URI]:
        """All descendants of ``prop`` including itself."""
        return frozenset(p for p in self._properties if prop in self.superproperties(p))

    def is_subclass(self, child: URI, parent: URI) -> bool:
        """True when ``child`` ⊑ ``parent`` in the class DAG (reflexive)."""
        if parent == RESOURCE:
            return True
        return parent in self.superclasses(child)

    def is_subproperty(self, child: URI, parent: URI) -> bool:
        """True when ``child`` ⊑ ``parent`` in the property DAG (reflexive)."""
        return parent in self.superproperties(child)

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def to_graph(self) -> Graph:
        """Serialise the schema itself as RDF triples."""
        g = Graph()
        for cls in sorted(self._classes):
            g.add(cls, TYPE, CLASS)
            for parent in sorted(self._super_classes.get(cls, ())):
                g.add(cls, SUBCLASSOF, parent)
        for prop in sorted(self._properties):
            definition = self._properties[prop]
            g.add(prop, TYPE, PROPERTY)
            g.add(prop, DOMAIN, definition.domain)
            g.add(prop, RANGE, definition.range)
            for parent in sorted(self._super_properties.get(prop, ())):
                g.add(prop, SUBPROPERTYOF, parent)
        return g

    @classmethod
    def from_graph(cls, graph: Graph, namespace: Namespace, name: str = "") -> "Schema":
        """Rebuild a schema from its RDF serialisation."""
        schema = cls(namespace, name)
        for t in graph.triples(None, TYPE, CLASS):
            if isinstance(t.subject, URI):
                schema.add_class(t.subject)
        prop_triples = list(graph.triples(None, TYPE, PROPERTY))
        for t in prop_triples:
            prop = t.subject
            if not isinstance(prop, URI):
                continue
            domains = [x.object for x in graph.triples(prop, DOMAIN, None)]
            ranges = [x.object for x in graph.triples(prop, RANGE, None)]
            if not domains or not ranges:
                raise SchemaError(f"property {prop} lacks domain or range")
            schema.add_property(prop, domains[0], ranges[0])
        for t in graph.triples(None, SUBCLASSOF, None):
            schema.add_subclass(t.subject, t.object)
        for t in graph.triples(None, SUBPROPERTYOF, None):
            schema.add_subproperty(t.subject, t.object)
        return schema

    def __repr__(self) -> str:
        return (
            f"Schema({self.name!r}, classes={len(self._classes)}, "
            f"properties={len(self._properties)})"
        )

    def __iter__(self) -> Iterator[PropertyDef]:
        return iter(self._properties.values())
