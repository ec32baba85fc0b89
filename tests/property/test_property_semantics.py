"""The library's central semantic properties, checked on random data:

1. **Routing completeness** — any peer whose base contributes answers
   to a path pattern is annotated by the routing algorithm.
2. **Plan soundness/completeness** — evaluating the generated plan over
   distributed bases returns exactly the centralised answer.
3. **Optimisation preserves semantics** — Plan 1, Plan 2 and Plan 3
   all evaluate to the same result.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_plan, optimize, route_query
from repro.core.algebra import Hole, Join, PlanNode, Scan, Union
from repro.execution.encoded import EncodedBase, evaluate_scan_encoded
from repro.execution.operators import vjoin_all_distinct, vunion_all_distinct
from repro.rdf import Graph, InferredView, Namespace, TYPE
from repro.rdf.dictionary import TermDictionary
from repro.rql import evaluate_path_pattern
from repro.rql.evaluator import evaluate_pattern
from repro.rvl import ActiveSchema
from repro.workloads.paper import N1, paper_query_pattern, paper_schema

from ..idtables import decode_cells

DATA = Namespace("http://pw/")

SCHEMA = paper_schema()
PATTERN = paper_query_pattern(SCHEMA)

#: The properties random bases may assert (prop4 ⊑ prop1 included).
ASSERTABLE = [N1.prop1, N1.prop2, N1.prop4]


@st.composite
def distributed_bases(draw, peers=("A", "B", "C")):
    """Random peer bases over a small shared resource pool."""
    resources = [DATA[f"r{i}"] for i in range(8)]
    bases = {}
    for peer in peers:
        graph = Graph()
        statements = draw(st.lists(
            st.tuples(
                st.sampled_from(resources),
                st.sampled_from(ASSERTABLE),
                st.sampled_from(resources),
            ),
            max_size=15,
        ))
        for s, p, o in statements:
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
    return evaluate_pattern(PATTERN, InferredView(merged, SCHEMA)).distinct()


def evaluate_plan(plan: PlanNode, bases):
    """Pure (network-free) plan evaluation for semantics checks: the
    engine's scan and combine kernels over one shared id space."""
    dictionary = TermDictionary()
    columnar = {
        peer: EncodedBase(graph, SCHEMA, dictionary) for peer, graph in bases.items()
    }

    def run(node: PlanNode):
        if isinstance(node, Hole):
            raise AssertionError("plan with holes")
        if isinstance(node, Scan):
            return evaluate_scan_encoded(node, columnar[node.peer_id])
        tables = [run(child) for child in node.children()]
        combine = vunion_all_distinct if isinstance(node, Union) else vjoin_all_distinct
        return combine(tables)

    return decode_cells(run(plan), dictionary)


def advertisements(bases):
    return [
        ActiveSchema.from_base(graph, SCHEMA, peer) for peer, graph in bases.items()
    ]


class TestRoutingCompleteness:
    @given(distributed_bases())
    @settings(max_examples=40, deadline=None)
    def test_contributing_peer_is_annotated(self, bases):
        annotated = route_query(PATTERN, advertisements(bases), SCHEMA)
        for path_pattern in PATTERN:
            annotated_peers = set(annotated.peers_for(path_pattern))
            for peer, graph in bases.items():
                rows = evaluate_path_pattern(
                    path_pattern, InferredView(graph, SCHEMA)
                )
                if len(rows):
                    assert peer in annotated_peers, (peer, path_pattern.label)


class TestPlanSemantics:
    @given(distributed_bases())
    @settings(max_examples=40, deadline=None)
    def test_plan_equals_centralised_answer(self, bases):
        annotated = route_query(PATTERN, advertisements(bases), SCHEMA)
        if not annotated.is_fully_annotated():
            # some pattern has no data anywhere: centralised answer empty
            assert len(centralised(bases)) == 0
            return
        plan = build_plan(annotated)
        result = evaluate_plan(plan, bases).project(("X", "Y", "Z")).distinct()
        expected = centralised(bases)
        assert result == expected

    @given(distributed_bases())
    @settings(max_examples=40, deadline=None)
    def test_optimisation_preserves_semantics(self, bases):
        annotated = route_query(PATTERN, advertisements(bases), SCHEMA)
        if not annotated.is_fully_annotated():
            return
        plan1 = build_plan(annotated)
        trace = optimize(plan1)
        reference = evaluate_plan(plan1, bases).project(("X", "Y")).distinct()
        for rule, plan in trace:
            evaluated = evaluate_plan(plan, bases).project(("X", "Y")).distinct()
            assert evaluated == reference, rule


class TestSubsumptionSoundness:
    @given(distributed_bases())
    @settings(max_examples=30, deadline=None)
    def test_prop4_data_always_answers_prop1_queries(self, bases):
        """Every prop4 statement must surface through the prop1 pattern
        (RDFS soundness of the evaluator under subsumption)."""
        for graph in bases.values():
            prop4_pairs = {
                (t.subject, t.object) for t in graph.triples(None, N1.prop4, None)
            }
            rows = evaluate_path_pattern(PATTERN.root, InferredView(graph, SCHEMA))
            answered = set(zip(rows.column("X"), rows.column("Y")))
            assert prop4_pairs <= answered
