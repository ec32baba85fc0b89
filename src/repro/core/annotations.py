"""Annotated query patterns: the routing algorithm's output.

An :class:`AnnotatedQueryPattern` decorates each path pattern of a
query pattern with the peers that can answer it — plus, per peer, the
subquery actually rewritten for that peer (Section 2.3, Figure 2).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..rql.pattern import PathPattern, QueryPattern


class PeerAnnotation:
    """One relevant peer for one path pattern.

    Attributes:
        peer_id: The peer that can answer the pattern.
        rewritten: The subquery pattern rewritten for this peer's
            active-schema (class filters narrowed, see
            :mod:`repro.subsumption.rewriter`).
        exact: True when the peer's advertisement matches the query
            pattern exactly (same property and classes) rather than via
            strict subsumption.
    """

    __slots__ = ("peer_id", "rewritten", "exact")

    def __init__(self, peer_id: str, rewritten: PathPattern, exact: bool):
        object.__setattr__(self, "peer_id", peer_id)
        object.__setattr__(self, "rewritten", rewritten)
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, name, val):
        raise AttributeError("PeerAnnotation is immutable")

    def __repr__(self) -> str:
        kind = "exact" if self.exact else "subsumed"
        return f"PeerAnnotation({self.peer_id}, {kind})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PeerAnnotation)
            and self.peer_id == other.peer_id
            and self.rewritten == other.rewritten
            and self.exact == other.exact
        )

    def __hash__(self) -> int:
        return hash((self.peer_id, self.rewritten, self.exact))


class AnnotatedQueryPattern:
    """A query pattern whose path patterns carry routing annotations."""

    def __init__(self, query_pattern: QueryPattern):
        self.query_pattern = query_pattern
        self._annotations: Dict[PathPattern, List[PeerAnnotation]] = {
            p: [] for p in query_pattern
        }

    def annotate(self, pattern: PathPattern, annotation: PeerAnnotation) -> None:
        """Add a relevant peer for ``pattern`` (idempotent per peer)."""
        existing = self._annotations[pattern]
        if all(a.peer_id != annotation.peer_id for a in existing):
            existing.append(annotation)

    def extend_trusted(self, pattern: PathPattern, annotations) -> None:
        """Bulk-add annotations already known to be unique per peer —
        skips :meth:`annotate`'s per-item duplicate scan.  Only for
        callers replaying a previously deduplicated annotation set
        (the routing cache's hit path)."""
        self._annotations[pattern].extend(annotations)

    def annotations(self, pattern: PathPattern) -> Tuple[PeerAnnotation, ...]:
        """The annotations of one path pattern, sorted by peer id."""
        return tuple(sorted(self._annotations[pattern], key=lambda a: a.peer_id))

    def peers_for(self, pattern: PathPattern) -> Tuple[str, ...]:
        """Just the relevant peer ids, sorted."""
        return tuple(a.peer_id for a in self.annotations(pattern))

    def rewritten_for(self, pattern: PathPattern, peer_id: str) -> Optional[PathPattern]:
        """The subquery pattern rewritten for one annotated peer."""
        for annotation in self._annotations[pattern]:
            if annotation.peer_id == peer_id:
                return annotation.rewritten
        return None

    def all_peers(self) -> Tuple[str, ...]:
        """Every annotated peer across all patterns, sorted."""
        out = set()
        for annotations in self._annotations.values():
            out.update(a.peer_id for a in annotations)
        return tuple(sorted(out))

    def unannotated_patterns(self) -> Tuple[PathPattern, ...]:
        """Path patterns with no relevant peer — future plan holes."""
        return tuple(p for p in self.query_pattern if not self._annotations[p])

    def is_fully_annotated(self) -> bool:
        """True when every path pattern has at least one relevant peer."""
        return not self.unannotated_patterns()

    def same_annotations(self, other: "AnnotatedQueryPattern") -> bool:
        """True when both annotate the same query pattern identically
        (used to check cache-served answers against cold routing)."""
        if self.query_pattern != other.query_pattern:
            return False
        return all(
            self.annotations(p) == other.annotations(p) for p in self.query_pattern
        )

    def merge(self, other: "AnnotatedQueryPattern") -> "AnnotatedQueryPattern":
        """Combine annotations from another routing pass over the same
        query pattern (used when interleaving routing in ad-hoc SONs)."""
        merged = AnnotatedQueryPattern(self.query_pattern)
        for pattern in self.query_pattern:
            for annotation in self.annotations(pattern):
                merged.annotate(pattern, annotation)
            for annotation in other.annotations(pattern):
                merged.annotate(pattern, annotation)
        return merged

    def without_peers(self, excluded: set) -> "AnnotatedQueryPattern":
        """A copy dropping annotations of excluded peers (replanning
        after failures, Section 2.5)."""
        out = AnnotatedQueryPattern(self.query_pattern)
        for pattern in self.query_pattern:
            # a subset of annotations already unique per peer
            out.extend_trusted(pattern, [
                a for a in self.annotations(pattern) if a.peer_id not in excluded
            ])
        return out

    def __iter__(self) -> Iterator[PathPattern]:
        return iter(self.query_pattern)

    def __str__(self) -> str:
        parts = []
        for pattern in self.query_pattern:
            peers = ", ".join(self.peers_for(pattern)) or "?"
            parts.append(f"{pattern.label}<-[{peers}]")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"AnnotatedQueryPattern({self})"
