"""RDF term model: URIs, literals, blank nodes, variables and namespaces.

Terms are small immutable value objects.  They hash and compare by
value, so they can be used freely as dictionary keys and set members —
which the indexed :class:`~repro.rdf.graph.Graph` relies on.
"""

from __future__ import annotations

from typing import Optional, Union


class Term:
    """Abstract base for every RDF term."""

    __slots__ = ()

    def n3(self) -> str:
        """Render the term in N-Triples-like concrete syntax."""
        raise NotImplementedError


class URI(Term):
    """An absolute URI reference identifying a resource.

    Args:
        value: The URI string, e.g. ``"http://example.org/ns#C1"``.
    """

    __slots__ = ("value", "split")

    def __init__(self, value: str):
        if not value:
            raise ValueError("URI value must be a non-empty string")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):  # immutability guard
        raise AttributeError("URI is immutable")

    @property
    def local_name(self) -> str:
        """The fragment/last path segment, e.g. ``C1`` for ``...#C1``."""
        for sep in ("#", "/", ":"):
            if sep in self.value:
                return self.value.rsplit(sep, 1)[1]
        return self.value

    def __getattr__(self, name: str):
        # ``split``: ``(namespace, local part)``, cut after the last ``#``
        # or else ``/`` (``("", value)`` with neither), as a term list
        # ships it — a slot filled on first read, then a plain load
        if name != "split":
            raise AttributeError(name)
        value = self.value
        cut = value.rfind("#") if "#" in value else value.rfind("/")
        parts = (value[: cut + 1], value[cut + 1:])
        object.__setattr__(self, "split", parts)
        return parts

    def n3(self) -> str:
        return f"<{self.value}>"

    def __repr__(self) -> str:
        return f"URI({self.value!r})"

    def __str__(self) -> str:
        return self.value

    def __eq__(self, other) -> bool:
        return isinstance(other, URI) and self.value == other.value

    def __hash__(self) -> int:
        # the string's own (cached) hash: ``__eq__`` tells the kinds apart
        return hash(self.value)

    def __lt__(self, other: "URI"):
        if not isinstance(other, URI):
            return NotImplemented
        return self.value < other.value


class Literal(Term):
    """An RDF literal with optional datatype or language tag.

    Args:
        lexical: The lexical form.  Non-string python values
            (int/float/bool) are accepted and stored with an inferred
            datatype so workloads can populate bases conveniently.
        datatype: Optional datatype URI.
        language: Optional BCP-47 language tag (mutually exclusive with
            ``datatype``).
    """

    __slots__ = ("lexical", "datatype", "language")

    _XSD = "http://www.w3.org/2001/XMLSchema#"

    def __init__(
        self,
        lexical: Union[str, int, float, bool],
        datatype: Optional[URI] = None,
        language: Optional[str] = None,
    ):
        if datatype is not None and language is not None:
            raise ValueError("a literal cannot have both datatype and language")
        if isinstance(lexical, bool):
            datatype = datatype or URI(self._XSD + "boolean")
            lexical = "true" if lexical else "false"
        elif isinstance(lexical, int):
            datatype = datatype or URI(self._XSD + "integer")
            lexical = str(lexical)
        elif isinstance(lexical, float):
            datatype = datatype or URI(self._XSD + "double")
            lexical = repr(lexical)
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language)

    def __setattr__(self, name, val):
        raise AttributeError("Literal is immutable")

    def to_python(self) -> Union[str, int, float, bool]:
        """Convert back to a native Python value when the datatype is known."""
        if self.datatype is None:
            return self.lexical
        local = self.datatype.local_name
        if local in ("integer", "int", "long"):
            return int(self.lexical)
        if local in ("double", "float", "decimal"):
            return float(self.lexical)
        if local == "boolean":
            return self.lexical == "true"
        return self.lexical

    def n3(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        out = f'"{escaped}"'
        if self.language:
            out += f"@{self.language}"
        elif self.datatype:
            out += f"^^{self.datatype.n3()}"
        return out

    def __repr__(self) -> str:
        return f"Literal({self.lexical!r})"

    def __str__(self) -> str:
        return self.lexical

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Literal)
            and self.lexical == other.lexical
            and self.datatype == other.datatype
            and self.language == other.language
        )

    def __hash__(self) -> int:
        return hash(("Literal", self.lexical, self.datatype, self.language))


class BNode(Term):
    """A blank node with a graph-local identifier."""

    __slots__ = ("id",)

    _counter = 0

    def __init__(self, node_id: Optional[str] = None):
        if node_id is None:
            BNode._counter += 1
            node_id = f"b{BNode._counter}"
        object.__setattr__(self, "id", node_id)

    def __setattr__(self, name, val):
        raise AttributeError("BNode is immutable")

    def n3(self) -> str:
        return f"_:{self.id}"

    def __repr__(self) -> str:
        return f"BNode({self.id!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, BNode) and self.id == other.id

    def __hash__(self) -> int:
        return hash(("BNode", self.id))


class Variable(Term):
    """A query variable (``X``, ``Y``...), used in patterns, never in data."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ValueError("variable name must be non-empty")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, val):
        raise AttributeError("Variable is immutable")

    def n3(self) -> str:
        return f"?{self.name}"

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Variable", self.name))


class Namespace:
    """A URI prefix that manufactures :class:`URI` terms by attribute access.

    Example:
        >>> n1 = Namespace("http://example.org/n1#")
        >>> n1.C1
        URI('http://example.org/n1#C1')
        >>> n1["prop1"]
        URI('http://example.org/n1#prop1')
    """

    __slots__ = ("uri",)

    def __init__(self, uri: str):
        object.__setattr__(self, "uri", uri)

    def __setattr__(self, name, val):
        raise AttributeError("Namespace is immutable")

    def __getattr__(self, name: str) -> URI:
        if name.startswith("__"):
            raise AttributeError(name)
        return URI(self.uri + name)

    def __getitem__(self, name: str) -> URI:
        return URI(self.uri + name)

    def __contains__(self, term: Term) -> bool:
        return isinstance(term, URI) and term.value.startswith(self.uri)

    def __repr__(self) -> str:
        return f"Namespace({self.uri!r})"

    def __str__(self) -> str:
        return self.uri

    def __eq__(self, other) -> bool:
        return isinstance(other, Namespace) and self.uri == other.uri

    def __hash__(self) -> int:
        return hash(("Namespace", self.uri))


#: Union of the term kinds that may appear in a triple's subject slot.
SubjectTerm = Union[URI, BNode]
#: Union of the term kinds that may appear in a triple's object slot.
ObjectTerm = Union[URI, BNode, Literal]
