"""Request coalescing (singleflight) for in-flight identical queries.

Under heavy traffic the same query arrives at a coordinator many times
before the first copy finishes — routing, planning and the whole
distributed execution would run once per copy.  The coalescer keys
in-flight work by ``(query text, result-shaping constraints)``: the
first arrival becomes the **leader** and proceeds normally; subsequent
identical arrivals become **followers**, parked until the leader's
completion continuation answers them all from the single shared
result.

The key is the exact query text (plus constraints): only textual
equality guarantees the leader's final table answers the follower
verbatim.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, TypeVar

R = TypeVar("R")


class QueryCoalescer:
    """Tracks in-flight leaders and their parked followers."""

    def __init__(self):
        #: coalescing key -> leader query id
        self._leaders: Dict[Hashable, str] = {}
        #: leader query id -> its coalescing key (for completion)
        self._key_of: Dict[str, Hashable] = {}
        #: leader query id -> parked follower requests
        self._followers: Dict[str, List] = {}

    def admit(self, key: Hashable, query_id: str, request: R) -> Optional[str]:
        """Admit one request under a coalescing key.

        Returns ``None`` when the request becomes the leader (caller
        proceeds with routing/planning/execution), or the leader's
        query id when the request was parked as a follower (caller
        stops; :meth:`complete` will surface it).
        """
        leader = self._leaders.get(key)
        if leader is None:
            self._leaders[key] = query_id
            self._key_of[query_id] = key
            return None
        self._followers.setdefault(leader, []).append(request)
        return leader

    def complete(self, query_id: str) -> List:
        """The leader finished (result or error): release its followers.

        Idempotent; unknown (non-leader) ids release nothing.  The
        coalescing key is retired first, so requests arriving after
        completion start a fresh flight.
        """
        key = self._key_of.pop(query_id, None)
        if key is not None and self._leaders.get(key) == query_id:
            del self._leaders[key]
        return self._followers.pop(query_id, [])

    def in_flight(self) -> int:
        """The number of distinct leaders currently flying."""
        return len(self._leaders)

    def parked(self) -> int:
        """The number of followers currently parked."""
        return sum(len(f) for f in self._followers.values())

    def __repr__(self) -> str:
        return f"QueryCoalescer(in_flight={self.in_flight()}, parked={self.parked()})"
