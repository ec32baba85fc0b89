"""Hypothesis strategies shared by the property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.rdf import Graph, Literal, Triple, URI
from repro.rql.bindings import BindingTable

#: A small closed world of resources keeps join probability high.
RESOURCES = [URI(f"http://w/r{i}") for i in range(12)]
PREDICATES = [URI(f"http://w/p{i}") for i in range(4)]

uris = st.sampled_from(RESOURCES)
predicates = st.sampled_from(PREDICATES)

literal_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20
)
literals = st.one_of(
    literal_texts.map(Literal),
    st.integers(-1000, 1000).map(Literal),
    st.booleans().map(Literal),
    st.tuples(literal_texts, st.sampled_from(["en", "fr", "el"])).map(
        lambda pair: Literal(pair[0], language=pair[1])
    ),
)

objects = st.one_of(uris, literals)

triples = st.builds(Triple, uris, predicates, objects)


@st.composite
def graphs(draw, max_size: int = 30) -> Graph:
    """A random graph over the closed world."""
    return Graph(draw(st.lists(triples, max_size=max_size)))


@st.composite
def binding_rows(draw, width: int):
    return tuple(draw(uris) for _ in range(width))


# ----------------------------------------------------------------------
# id-table operands of the join/union kernels
# ----------------------------------------------------------------------
VARIABLES = ("A", "B", "C", "D", "E")


def _shape(kind, n):
    """The operands' column tuples of one query shape over ``n`` hops."""
    v = VARIABLES
    if kind == "chain":
        return [(v[i], v[i + 1]) for i in range(n)] + [(v[n],)]
    if kind == "star":
        return [(v[0], v[i + 1]) for i in range(n)]
    if kind == "cycle":
        return [(v[i], v[(i + 1) % (n + 1)]) for i in range(n + 1)]
    return [(v[i],) for i in range(n)]  # cross product: nothing shared


@st.composite
def operand_sets(draw):
    kind = draw(st.sampled_from(["chain", "star", "cycle", "cross", "random"]))
    n = draw(st.integers(1, 3))
    if kind == "random":
        columns = draw(st.lists(
            st.lists(st.sampled_from(VARIABLES), unique=True, max_size=3).map(tuple),
            min_size=1, max_size=4,
        ))
    else:
        columns = _shape(kind, n)
    if draw(st.booleans()):
        # an operand the others share nothing with (chains and stars
        # reach at most "D"): elimination merges around it
        columns.append(("E",))
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), ())
    columns = draw(st.permutations([draw(st.permutations(c)) for c in columns]))
    # a small value pool makes duplicate-heavy operands and wide fan-out
    values = st.sampled_from(RESOURCES[: draw(st.integers(1, 4))])
    return [
        BindingTable(
            tuple(cols),
            draw(st.lists(st.tuples(*[values] * len(cols)), max_size=6)),
        )
        for cols in columns
    ]


#: ``None``, nothing, or each variable in or out by a coin flip
needed_sets = st.one_of(
    st.none(),
    st.just(set()),
    st.lists(st.booleans(), min_size=len(VARIABLES), max_size=len(VARIABLES)).map(
        lambda flags: {v for v, flag in zip(VARIABLES, flags) if flag}
    ),
)
