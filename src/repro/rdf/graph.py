"""An indexed in-memory RDF triple store.

The store maintains three hash indexes (subject, predicate, object) so
the single-slot lookups the RQL evaluator performs are O(matches).
Pattern matching with any combination of bound/unbound slots is
supported through :meth:`Graph.triples`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator, Optional, Set

from .terms import ObjectTerm, SubjectTerm, Term, URI
from .triple import Triple
from .vocabulary import TYPE

#: the bucket of a key no triple has (never a fresh set per lookup)
_NO_TRIPLES: FrozenSet[Triple] = frozenset()


class Graph:
    """A set of RDF triples with per-slot hash indexes.

    Example:
        >>> from repro.rdf import Graph, Namespace
        >>> ex = Namespace("http://example.org/")
        >>> g = Graph()
        >>> _ = g.add(ex.alice, ex.knows, ex.bob)
        >>> len(g)
        1
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None):
        self._triples: Set[Triple] = set()
        self._by_subject: Dict[Term, Set[Triple]] = defaultdict(set)
        self._by_predicate: Dict[URI, Set[Triple]] = defaultdict(set)
        self._by_object: Dict[Term, Set[Triple]] = defaultdict(set)
        #: bumped on every effective mutation — derived structures
        #: (encoded column caches, statistics) key their validity on it
        self.version = 0
        if triples:
            for t in triples:
                self.add_triple(t)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, subject: SubjectTerm, predicate: URI, obj: ObjectTerm) -> Triple:
        """Add the statement ``(subject, predicate, obj)`` and return it."""
        triple = Triple(subject, predicate, obj)
        self.add_triple(triple)
        return triple

    def add_triple(self, triple: Triple) -> bool:
        """Add an already-constructed :class:`Triple` (idempotent);
        return True when the statement was not already asserted."""
        if triple in self._triples:
            return False
        self._triples.add(triple)
        self._by_subject[triple.subject].add(triple)
        self._by_predicate[triple.predicate].add(triple)
        self._by_object[triple.object].add(triple)
        self.version += 1
        return True

    def remove_triple(self, triple: Triple) -> bool:
        """Remove a triple; return True if it was present."""
        if triple not in self._triples:
            return False
        self._triples.discard(triple)
        self._discard_index(self._by_subject, triple.subject, triple)
        self._discard_index(self._by_predicate, triple.predicate, triple)
        self._discard_index(self._by_object, triple.object, triple)
        self.version += 1
        return True

    @staticmethod
    def _discard_index(index: Dict, key: Term, triple: Triple) -> None:
        bucket = index.get(key)
        if bucket is None:
            return
        bucket.discard(triple)
        if not bucket:
            del index[key]

    def update(self, triples: Iterable[Triple]) -> None:
        """Add every triple from an iterable."""
        for t in triples:
            self.add_triple(t)

    def clear(self) -> None:
        """Remove all triples."""
        if self._triples:
            self.version += 1
        self._triples.clear()
        self._by_subject.clear()
        self._by_predicate.clear()
        self._by_object.clear()

    # ------------------------------------------------------------------
    # pattern matching
    # ------------------------------------------------------------------
    def triples(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[URI] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the pattern; ``None`` means wildcard.

        The smallest applicable index is scanned, and remaining bound
        slots are checked per candidate.
        """
        candidates = self._candidate_set(subject, predicate, obj)
        if candidates is None:
            candidates = self._triples
        for triple in candidates:
            if triple.matches(subject, predicate, obj):
                yield triple

    def _candidate_set(
        self,
        subject: Optional[Term],
        predicate: Optional[URI],
        obj: Optional[Term],
    ) -> Optional[AbstractSet[Triple]]:
        """Pick the smallest index bucket covering the bound slots."""
        buckets = []
        if subject is not None:
            buckets.append(self._by_subject.get(subject, _NO_TRIPLES))
        if predicate is not None:
            buckets.append(self._by_predicate.get(predicate, _NO_TRIPLES))
        if obj is not None:
            buckets.append(self._by_object.get(obj, _NO_TRIPLES))
        if not buckets:
            return None
        return min(buckets, key=len)

    def has(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[URI] = None,
        obj: Optional[Term] = None,
    ) -> bool:
        """Whether any triple matches the pattern (``None`` a wildcard):
        with one slot bound, whether its index holds the key (a bucket
        emptied by removals is dropped); with more, the first match in
        the smallest bucket."""
        if subject is None and obj is None:
            if predicate is None:
                return bool(self._triples)
            return bool(self._by_predicate.get(predicate))
        candidates = self._candidate_set(subject, predicate, obj)
        if (subject is None) + (predicate is None) + (obj is None) == 2:
            return bool(candidates)
        return any(t.matches(subject, predicate, obj) for t in candidates)

    def subjects(self, predicate: Optional[URI] = None, obj: Optional[Term] = None) -> Iterator[Term]:
        """Yield distinct subjects of triples matching ``(?, predicate, obj)``."""
        seen = set()
        for t in self.triples(None, predicate, obj):
            if t.subject not in seen:
                seen.add(t.subject)
                yield t.subject

    def objects(self, subject: Optional[Term] = None, predicate: Optional[URI] = None) -> Iterator[Term]:
        """Yield distinct objects of triples matching ``(subject, predicate, ?)``."""
        seen = set()
        for t in self.triples(subject, predicate, None):
            if t.object not in seen:
                seen.add(t.object)
                yield t.object

    def predicates(self) -> Iterator[URI]:
        """Yield the distinct predicates present in the graph."""
        return iter(set(self._by_predicate))

    def instances_of(self, cls: URI) -> Iterator[Term]:
        """Yield resources directly typed ``rdf:type cls`` (no inference)."""
        return self.subjects(TYPE, cls)

    def count(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[URI] = None,
        obj: Optional[Term] = None,
    ) -> int:
        """Number of triples matching the pattern."""
        return sum(1 for _ in self.triples(subject, predicate, obj))

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __bool__(self) -> bool:
        return bool(self._triples)

    def copy(self) -> "Graph":
        """A shallow copy (triples are immutable, so this is safe)."""
        return Graph(self._triples)

    def __or__(self, other: "Graph") -> "Graph":
        merged = self.copy()
        merged.update(other)
        return merged

    def __repr__(self) -> str:
        return f"Graph(<{len(self)} triples>)"
