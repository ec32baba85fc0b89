"""The distributed query plan algebra (paper Sections 2.4–2.5).

Plans are immutable trees over four node kinds:

* :class:`Scan` — ``Q1@P2``: one or more path patterns evaluated at a
  single peer (a composite scan ``(Q1∪Q2)@P1`` is what Transformation
  Rules 1/2 produce);
* :class:`Hole` — ``Q1@?``: a path pattern with no known relevant peer,
  to be filled by another peer (ad-hoc architecture, Section 3.2);
* :class:`Union` — horizontal distribution (several peers answer the
  same pattern);
* :class:`Join` — vertical distribution (successive patterns joined on
  shared variables).

The pretty-printer reproduces the paper's notation so bench output can
be compared against Figures 3, 4 and 7 textually.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Set, Tuple

from ..errors import PlanningError
from ..rql.pattern import PathPattern

JOIN_SYMBOL = "⋈"
UNION_SYMBOL = "∪"
HOLE_MARK = "?"


class PlanNode:
    """Abstract base of plan tree nodes."""

    __slots__ = ()

    def children(self) -> Tuple["PlanNode", ...]:
        return ()

    def patterns(self) -> Tuple[PathPattern, ...]:
        """Every path pattern referenced below this node."""
        out = []
        for child in self.children():
            out.extend(child.patterns())
        return tuple(out)

    def peers(self) -> Set[str]:
        """Every peer id referenced below this node."""
        out: Set[str] = set()
        for child in self.children():
            out |= child.peers()
        return out

    def holes(self) -> Tuple["Hole", ...]:
        """Every hole below this node, in left-to-right order."""
        out = []
        for child in self.children():
            out.extend(child.holes())
        return tuple(out)

    def is_complete(self) -> bool:
        """True when the plan contains no holes (Section 3.1's notion of
        a complete query plan)."""
        return not self.holes()

    def variables(self) -> Tuple[str, ...]:
        seen = []
        for pattern in self.patterns():
            for var in pattern.variables():
                if var not in seen:
                    seen.append(var)
        return tuple(seen)

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal."""
        yield self
        for child in self.children():
            yield from child.walk()

    def render(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"


class Scan(PlanNode):
    """One or more path patterns evaluated at one peer: ``(Q1∪Q2)@P1``.

    A multi-pattern scan is executed as a single subquery at the peer —
    the peer joins the patterns locally — which is exactly the effect
    of the paper's Transformation Rules 1 and 2.
    """

    __slots__ = ("_patterns", "peer_id")

    def __init__(self, patterns: Sequence[PathPattern], peer_id: str):
        if not patterns:
            raise PlanningError("a scan needs at least one path pattern")
        if not peer_id:
            raise PlanningError("a scan needs a peer id (use Hole for unknown peers)")
        object.__setattr__(self, "_patterns", tuple(patterns))
        object.__setattr__(self, "peer_id", peer_id)

    def __setattr__(self, name, val):
        raise AttributeError("Scan is immutable")

    def patterns(self) -> Tuple[PathPattern, ...]:
        return self._patterns

    def peers(self) -> Set[str]:
        return {self.peer_id}

    def labels(self) -> str:
        return UNION_SYMBOL.join(p.label for p in self._patterns)

    def render(self) -> str:
        if len(self._patterns) == 1:
            return f"{self._patterns[0].label}@{self.peer_id}"
        return f"({self.labels()})@{self.peer_id}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scan)
            and self._patterns == other._patterns
            and self.peer_id == other.peer_id
        )

    def __hash__(self) -> int:
        return hash(("Scan", self._patterns, self.peer_id))


class Hole(PlanNode):
    """A path pattern with no known relevant peer: ``Q2@?``."""

    __slots__ = ("pattern",)

    def __init__(self, pattern: PathPattern):
        object.__setattr__(self, "pattern", pattern)

    def __setattr__(self, name, val):
        raise AttributeError("Hole is immutable")

    def patterns(self) -> Tuple[PathPattern, ...]:
        return (self.pattern,)

    def holes(self) -> Tuple["Hole", ...]:
        return (self,)

    def render(self) -> str:
        return f"{self.pattern.label}@{HOLE_MARK}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Hole) and self.pattern == other.pattern

    def __hash__(self) -> int:
        return hash(("Hole", self.pattern))


class _Inner(PlanNode):
    """Shared implementation of the two n-ary inner node kinds."""

    __slots__ = ("_children",)

    _symbol = "?"

    def __init__(self, children: Sequence[PlanNode]):
        if len(children) < 1:
            raise PlanningError(f"{type(self).__name__} needs at least one input")
        for child in children:
            if not isinstance(child, PlanNode):
                raise PlanningError(f"not a plan node: {child!r}")
        object.__setattr__(self, "_children", tuple(children))

    def __setattr__(self, name, val):
        raise AttributeError("plan nodes are immutable")

    def children(self) -> Tuple[PlanNode, ...]:
        return self._children

    def render(self) -> str:
        inner = ", ".join(c.render() for c in self._children)
        return f"{self._symbol}({inner})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._children == other._children

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._children))


class Union(_Inner):
    """Horizontal distribution: bag union of sub-results (∪)."""

    __slots__ = ()
    _symbol = UNION_SYMBOL


class Join(_Inner):
    """Vertical distribution: natural join of sub-results (⋈)."""

    __slots__ = ()
    _symbol = JOIN_SYMBOL


def union_of(children: Sequence[PlanNode]) -> PlanNode:
    """A union, collapsed when there is a single input."""
    if len(children) == 1:
        return children[0]
    return Union(children)


def join_of(children: Sequence[PlanNode]) -> PlanNode:
    """A join, collapsed when there is a single input."""
    if len(children) == 1:
        return children[0]
    return Join(children)


def flatten(plan: PlanNode) -> PlanNode:
    """Flatten nested joins-under-joins and unions-under-unions.

    ``⋈(⋈(a, b), c)`` becomes ``⋈(a, b, c)``; likewise for unions.
    This normal form is what the transformation rules pattern-match on.
    """
    if isinstance(plan, (Scan, Hole)):
        return plan
    flat_children = []
    for child in plan.children():
        flat_child = flatten(child)
        if type(flat_child) is type(plan):
            flat_children.extend(flat_child.children())
        else:
            flat_children.append(flat_child)
    if isinstance(plan, Join):
        return join_of(flat_children)
    if isinstance(plan, Union):
        return union_of(flat_children)
    raise PlanningError(f"unknown plan node type {type(plan).__name__}")


def substitute_hole(plan: PlanNode, hole: Hole, replacement: PlanNode) -> PlanNode:
    """A copy of ``plan`` with one hole replaced (ad-hoc hole filling)."""
    if plan == hole:
        return replacement
    if isinstance(plan, (Scan, Hole)):
        return plan
    new_children = tuple(substitute_hole(c, hole, replacement) for c in plan.children())
    if isinstance(plan, Join):
        return Join(new_children)
    if isinstance(plan, Union):
        return Union(new_children)
    raise PlanningError(f"unknown plan node type {type(plan).__name__}")


def count_scans(plan: PlanNode) -> int:
    """The number of scan leaves = subqueries shipped to peers."""
    if isinstance(plan, Scan):
        return 1
    return sum(map(count_scans, plan.children()))


def depth(plan: PlanNode) -> int:
    """Height of the plan tree."""
    kids: Tuple[PlanNode, ...] = plan.children()
    if not kids:
        return 1
    return 1 + max(depth(c) for c in kids)
