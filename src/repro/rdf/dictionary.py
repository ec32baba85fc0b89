"""Dictionary encoding: interned RDF terms ↔ dense int32 IDs.

Columnar engines dictionary-encode values so the hot join/filter paths
work on small integers instead of boxed terms; the dictionary maps the
integers back only when results are materialised.  A
:class:`TermDictionary` assigns each distinct :class:`Term` a dense id
in first-seen order, so a peer's dictionary is append-only and stable:
cached id columns stay valid for the peer's lifetime.  Ids never leave
the peer — a table crossing a link names its terms itself
(:class:`~repro.execution.encoded.EncodedTable`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from .terms import Term

#: Encoded ids are conceptually int32 (the wire/width budget a real
#: columnar store would use); interning past this is a bug.
MAX_TERM_ID = 2**31 - 1


class TermDictionary:
    """A bidirectional Term ↔ dense-int mapping (append-only).

    Example:
        >>> from repro.rdf import Namespace
        >>> ex = Namespace("http://example.org/")
        >>> d = TermDictionary()
        >>> d.encode(ex.alice)
        0
        >>> d.encode(ex.alice)  # interned: same id
        0
        >>> d.decode(0) == ex.alice
        True
    """

    def __init__(self) -> None:
        self._terms: List[Term] = []
        self._ids: Dict[Term, int] = {}

    def encode(self, term: Term) -> int:
        """The term's id, interning it on first sight."""
        tid = self._ids.get(term)
        if tid is None:
            tid = len(self._terms)
            if tid > MAX_TERM_ID:
                raise OverflowError("term dictionary exceeded int32 id space")
            self._terms.append(term)
            self._ids[term] = tid
        return tid

    def encode_many(self, terms: Sequence[Term]) -> List[int]:
        """The terms' ids: one lookup pass, interning term by term only
        when some term is new."""
        ids = list(map(self._ids.get, terms))
        if None in ids:
            return [self.encode(term) for term in terms]
        return ids

    def decode(self, tid: int) -> Term:
        """The term behind an id; raises ``IndexError`` for unknown ids."""
        if tid < 0:
            raise IndexError(f"negative term id {tid}")
        return self._terms[tid]

    def decode_many(self, ids: Iterable[int]) -> List[Term]:
        return list(map(self._terms.__getitem__, ids))

    def lookup(self, term: Term):
        """The term's id if interned, else ``None`` (no interning)."""
        return self._ids.get(term)

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def __repr__(self) -> str:
        return f"TermDictionary(<{len(self)} terms>)"

