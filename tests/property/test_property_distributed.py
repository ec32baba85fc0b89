"""The whole-system property: for random peer contents, a distributed
hybrid query — blocking or pipelined, with or without streaming, with
or without operator placement — returns exactly the centralised
answer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, InferredView, Namespace, TYPE
from repro.rql.evaluator import evaluate_pattern
from repro.config import PeerConfig
from repro.systems import HybridSystem
from repro.workloads.paper import N1, PAPER_QUERY, paper_query_pattern, paper_schema

SCHEMA = paper_schema()
PATTERN = paper_query_pattern(SCHEMA)
DATA = Namespace("http://dist/")

ASSERTABLE = [N1.prop1, N1.prop2, N1.prop4]
RESOURCES = [DATA[f"r{i}"] for i in range(6)]

statements = st.lists(
    st.tuples(
        st.sampled_from(RESOURCES),
        st.sampled_from(ASSERTABLE),
        st.sampled_from(RESOURCES),
    ),
    max_size=10,
)


@st.composite
def peer_contents(draw):
    bases = {}
    for peer in ("A", "B", "C"):
        graph = Graph()
        for s, p, o in draw(statements):
            definition = SCHEMA.property_def(p)
            graph.add(s, TYPE, definition.domain)
            graph.add(o, TYPE, definition.range)
            graph.add(s, p, o)
        bases[peer] = graph
    return bases


def centralised(bases):
    merged = Graph()
    for graph in bases.values():
        merged.update(graph)
    return (
        evaluate_pattern(PATTERN, InferredView(merged, SCHEMA))
        .project(("X", "Y"))
        .distinct()
    )


def run_distributed(bases, pipelined: bool, chunk_rows, shipping: bool = False):
    """``chunk_rows=None`` ships whole results; a count streams them
    paced in chunks of that many rows."""
    streaming = {} if chunk_rows is None else {
        "batch_size": chunk_rows, "stream_interval": 2.0
    }
    system = HybridSystem(
        SCHEMA,
        config=PeerConfig(
            pipelined_execution=pipelined, cost_based=shipping, **streaming
        ),
    )
    system.add_super_peer("SP1")
    for peer_id, graph in bases.items():
        system.add_peer(peer_id, graph, "SP1")
    try:
        return system.query("A", PAPER_QUERY)
    except Exception:
        # unroutable (some pattern has no provider anywhere)
        return None


class TestDistributedEqualsCentralised:
    @given(peer_contents())
    @settings(max_examples=25, deadline=None)
    def test_blocking(self, bases):
        expected = centralised(bases)
        actual = run_distributed(bases, pipelined=False, chunk_rows=None)
        if actual is None:
            assert len(expected) == 0
        else:
            assert actual == expected

    @given(peer_contents())
    @settings(max_examples=25, deadline=None)
    def test_pipelined_streaming(self, bases):
        expected = centralised(bases)
        actual = run_distributed(bases, pipelined=True, chunk_rows=1)
        if actual is None:
            assert len(expected) == 0
        else:
            assert actual == expected

    @given(peer_contents())
    @settings(max_examples=25, deadline=None)
    def test_pipelined_streaming_with_placement(self, bases):
        expected = centralised(bases)
        actual = run_distributed(bases, pipelined=True, chunk_rows=1, shipping=True)
        if actual is None:
            assert len(expected) == 0
        else:
            assert actual == expected

    @given(peer_contents())
    @settings(max_examples=15, deadline=None)
    def test_blocking_and_pipelined_agree(self, bases):
        blocking = run_distributed(bases, pipelined=False, chunk_rows=2)
        pipelined = run_distributed(bases, pipelined=True, chunk_rows=2)
        assert (blocking is None) == (pipelined is None)
        if blocking is not None:
            assert blocking == pipelined
