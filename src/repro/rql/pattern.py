"""Semantic query patterns (paper Section 2.1, Figure 1).

A *query pattern* is the intensional footprint of a conjunctive RQL
query: a graph of :class:`PathPattern` nodes, one per FROM-clause path
expression, each carrying the *schema path* (domain class, property,
range class) it touches.  End-point classes not written explicitly in
the query are obtained from the property's domain/range definitions in
the community schema — exactly as the paper derives C1, C2, C3 for
query **Q** in Figure 1.

The same :class:`SchemaPath` type also underlies peer advertisements
(:class:`~repro.rvl.active_schema.ActiveSchema`), giving the uniform
logical framework Section 2.2 argues for.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import SchemaError
from ..rdf.schema import Schema
from ..rdf.terms import URI
from .ast import RQLQuery
from .parser import parse_query


class SchemaPath:
    """One schema-level hop: ``domain --property--> range``."""

    __slots__ = ("domain", "property", "range", "_hash")

    def __init__(self, domain: URI, property_: URI, range_: URI):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "property", property_)
        object.__setattr__(self, "range", range_)
        # hashed on every dict lookup of a pattern: once, here
        object.__setattr__(self, "_hash", hash((domain, property_, range_)))

    def __setattr__(self, name, val):
        raise AttributeError("SchemaPath is immutable")

    def __repr__(self) -> str:
        return (
            f"SchemaPath({self.domain.local_name} --{self.property.local_name}--> "
            f"{self.range.local_name})"
        )

    def __str__(self) -> str:
        return f"({self.domain.local_name}){self.property.local_name}({self.range.local_name})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SchemaPath)
            and self.domain == other.domain
            and self.property == other.property
            and self.range == other.range
        )

    def __hash__(self) -> int:
        return self._hash


class PathPattern:
    """A query path pattern: a :class:`SchemaPath` plus variable bindings.

    Attributes:
        label: Position label in the query (``Q1``, ``Q2``, ...) used in
            plans and in the paper's figures.
        schema_path: The schema hop this pattern queries.
        subject_var: Variable bound at the domain end.
        object_var: Variable bound at the range end.
        projected: Variables among the two that the query projects
            (marked ``*`` in the paper's pattern drawings).
    """

    __slots__ = (
        "label", "schema_path", "subject_var", "object_var", "projected", "_hash",
        "_variables",
    )

    def __init__(
        self,
        label: str,
        schema_path: SchemaPath,
        subject_var: Optional[str],
        object_var: Optional[str],
        projected: Tuple[str, ...] = (),
    ):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "schema_path", schema_path)
        object.__setattr__(self, "subject_var", subject_var)
        object.__setattr__(self, "object_var", object_var)
        object.__setattr__(self, "projected", tuple(projected))
        object.__setattr__(self, "_hash", hash(
            (label, schema_path, subject_var, object_var, self.projected)
        ))
        # asked for at every scan and every shipped subplan's header
        object.__setattr__(
            self, "_variables", tuple(v for v in (subject_var, object_var) if v)
        )

    def __setattr__(self, name, val):
        raise AttributeError("PathPattern is immutable")

    def variables(self) -> Tuple[str, ...]:
        return self._variables

    def shares_variable_with(self, other: "PathPattern") -> bool:
        return bool(set(self.variables()) & set(other.variables()))

    def _render_var(self, var: Optional[str], cls: URI) -> str:
        name = var or "_"
        star = "*" if var in self.projected else ""
        return f"{name}{star};{cls.local_name}"

    def __str__(self) -> str:
        subject = self._render_var(self.subject_var, self.schema_path.domain)
        obj = self._render_var(self.object_var, self.schema_path.range)
        return f"{self.label}: {{{subject}}}{self.schema_path.property.local_name}{{{obj}}}"

    def __repr__(self) -> str:
        return f"PathPattern({self})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PathPattern)
            and self.label == other.label
            and self.schema_path == other.schema_path
            and self.subject_var == other.subject_var
            and self.object_var == other.object_var
            and self.projected == other.projected
        )

    def __hash__(self) -> int:
        return self._hash


class QueryPattern:
    """The semantic query pattern of a conjunctive RQL query.

    The pattern is organised as a tree rooted at the first path pattern
    (a spanning tree of the variable-sharing join graph); the
    Query-Processing Algorithm of Section 2.4 recurses over
    ``children(pattern)``.

    Args:
        patterns: Path patterns in FROM-clause order.
        projections: Projected variable names.
        schema: The community schema the query commits to.
    """

    def __init__(
        self,
        patterns: Sequence[PathPattern],
        projections: Tuple[str, ...],
        schema: Schema,
    ):
        if not patterns:
            raise SchemaError("a query pattern needs at least one path pattern")
        self._patterns: Tuple[PathPattern, ...] = tuple(patterns)
        self.projections = tuple(projections)
        self.schema = schema
        self._children: Dict[PathPattern, Tuple[PathPattern, ...]] = {}
        self._build_tree()

    def _build_tree(self) -> None:
        """Spanning tree over the variable-sharing graph, rooted at Q1.

        Patterns unreachable through shared variables (a cartesian
        product in the query) are attached to the root so every pattern
        is visited exactly once.
        """
        remaining: List[PathPattern] = list(self._patterns[1:])
        placed = [self._patterns[0]]
        children: Dict[PathPattern, List[PathPattern]] = {p: [] for p in self._patterns}
        while remaining:
            attached = None
            for candidate in remaining:
                parent = next(
                    (p for p in placed if candidate.shares_variable_with(p)), None
                )
                if parent is not None:
                    children[parent].append(candidate)
                    placed.append(candidate)
                    attached = candidate
                    break
            if attached is None:
                # disconnected component: attach its first pattern to the root
                candidate = remaining[0]
                children[self.root].append(candidate)
                placed.append(candidate)
                attached = candidate
            remaining.remove(attached)
        self._children = {p: tuple(c) for p, c in children.items()}

    @property
    def root(self) -> PathPattern:
        """The root path pattern (Q1)."""
        return self._patterns[0]

    @property
    def patterns(self) -> Tuple[PathPattern, ...]:
        """All path patterns, in FROM-clause order."""
        return self._patterns

    def children(self, pattern: PathPattern) -> Tuple[PathPattern, ...]:
        """The child patterns of ``pattern`` in the spanning tree."""
        return self._children.get(pattern, ())

    def pattern_by_label(self, label: str) -> PathPattern:
        for pattern in self._patterns:
            if pattern.label == label:
                return pattern
        raise KeyError(label)

    def variables(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for pattern in self._patterns:
            for var in pattern.variables():
                if var not in seen:
                    seen.append(var)
        return tuple(seen)

    def __iter__(self) -> Iterator[PathPattern]:
        return iter(self._patterns)

    def __len__(self) -> int:
        return len(self._patterns)

    def __str__(self) -> str:
        return " , ".join(str(p) for p in self._patterns)

    def __repr__(self) -> str:
        return f"QueryPattern({self})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QueryPattern)
            and self._patterns == other._patterns
            and self.projections == other.projections
        )

    def __hash__(self) -> int:
        return hash((self._patterns, self.projections))


def resolve_qname(qname: str, namespaces: Mapping[str, str]) -> URI:
    """Resolve ``prefix:local`` against a prefix → URI mapping."""
    prefix, _, local = qname.partition(":")
    if not local:
        raise SchemaError(f"{qname!r} is not a qualified name")
    try:
        return URI(namespaces[prefix] + local)
    except KeyError:
        raise SchemaError(f"undeclared namespace prefix {prefix!r} in {qname!r}") from None


def extract_pattern(
    query: RQLQuery,
    schema: Schema,
    default_namespaces: Optional[Mapping[str, str]] = None,
) -> QueryPattern:
    """Extract the semantic query pattern of a parsed RQL query.

    End-point classes omitted in the query text are read off the
    property definitions in ``schema`` (paper Section 2.1).  Explicit
    class filters must be declared classes.

    Args:
        query: The parsed query.
        schema: The community schema the query is expressed against.
        default_namespaces: Prefix bindings used when the query has no
            USING NAMESPACE clause.
    """
    namespaces: Dict[str, str] = dict(default_namespaces or {})
    namespaces.update(query.namespaces)
    projections = query.effective_projections()
    patterns: List[PathPattern] = []
    for index, path in enumerate(query.paths, start=1):
        prop = resolve_qname(path.property_name, namespaces)
        if not schema.has_property(prop):
            raise SchemaError(f"property {prop} is not declared in schema {schema.name}")
        definition = schema.property_def(prop)
        domain = (
            resolve_qname(path.subject.class_name, namespaces)
            if path.subject.class_name
            else definition.domain
        )
        range_ = (
            resolve_qname(path.object.class_name, namespaces)
            if path.object.class_name
            else definition.range
        )
        for cls, role in ((domain, "domain"), (range_, "range")):
            from ..rdf.vocabulary import LITERAL_CLASS

            if cls != LITERAL_CLASS and not schema.has_class(cls):
                raise SchemaError(f"{role} class {cls} is not declared in {schema.name}")
        projected = tuple(v for v in path.variables() if v in projections)
        patterns.append(
            PathPattern(
                label=f"Q{index}",
                schema_path=SchemaPath(domain, prop, range_),
                subject_var=path.subject.variable,
                object_var=path.object.variable,
                projected=projected,
            )
        )
    return QueryPattern(patterns, projections, schema)


def pattern_from_text(
    text: str,
    schema: Schema,
    default_namespaces: Optional[Mapping[str, str]] = None,
) -> QueryPattern:
    """Parse RQL text and extract its semantic query pattern in one step."""
    return extract_pattern(parse_query(text), schema, default_namespaces)
