"""Local RQL evaluation over a peer's RDF/S base.

Evaluation is schema-aware (RDFS-entailed): a path pattern on property
``p`` also matches statements of every ``p' ⊑ p``, and class filters
accept entailed instances.  This is the semantics that lets peer P4 of
the paper's Figure 2 — which only stores ``prop4`` statements — answer
the ``prop1`` path pattern Q1.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import EvaluationError
from ..rdf.graph import Graph
from ..rdf.inference import InferredView
from ..rdf.schema import Schema
from ..rdf.terms import Literal, Term, URI
from ..rdf.vocabulary import LITERAL_CLASS
from .ast import Condition, RQLQuery
from .bindings import BindingTable
from .parser import parse_query
from .pattern import PathPattern, QueryPattern, extract_pattern


def path_triple_matches(triple, path, schema: Schema, view: InferredView) -> bool:
    """Does an asserted triple satisfy a schema path's domain/range
    constraints under RDFS entailment?  The single matcher shared by
    this centralized evaluator and the distributed engine's column
    builder (:mod:`repro.execution.encoded`), so both agree by
    construction."""
    asserted = triple.predicate
    if schema.has_property(asserted):
        asserted_def = schema.property_def(asserted)
        subject_ok = schema.is_subclass(asserted_def.domain, path.domain) or (
            view.is_instance_of(triple.subject, path.domain)
        )
        object_ok = _range_matches(triple.object, asserted_def.range, path.range, schema, view)
    else:
        subject_ok = view.is_instance_of(triple.subject, path.domain)
        object_ok = _object_instance_ok(triple.object, path.range, schema, view)
    return subject_ok and object_ok


def evaluate_path_pattern(pattern: PathPattern, view: InferredView) -> BindingTable:
    """Evaluate one path pattern, returning bindings for its variables.

    Anonymous endpoints (``variable is None``) are matched but not
    bound; fully anonymous patterns return a zero-column table whose
    row count is the number of matches.
    """
    schema = view.schema
    path = pattern.schema_path
    columns = pattern.variables()
    table = BindingTable(columns)
    for triple in view.triples(None, path.property, None):
        if not path_triple_matches(triple, path, schema, view):
            continue
        row = []
        if pattern.subject_var:
            row.append(triple.subject)
        if pattern.object_var:
            row.append(triple.object)
        table.append(tuple(row))
    return table


def _range_matches(
    obj: Term,
    asserted_range: URI,
    required_range: URI,
    schema: Schema,
    view: InferredView,
) -> bool:
    if required_range == LITERAL_CLASS:
        return isinstance(obj, Literal)
    if isinstance(obj, Literal):
        return False
    if asserted_range != LITERAL_CLASS and schema.is_subclass(asserted_range, required_range):
        return True
    return view.is_instance_of(obj, required_range)


def _object_instance_ok(obj: Term, required_range: URI, schema: Schema, view: InferredView) -> bool:
    if required_range == LITERAL_CLASS:
        return isinstance(obj, Literal)
    if isinstance(obj, Literal):
        return False
    return view.is_instance_of(obj, required_range)


def evaluate_pattern(query_pattern: QueryPattern, view: InferredView) -> BindingTable:
    """Evaluate a full conjunctive pattern: join of its path patterns."""
    result = BindingTable.unit()
    for pattern in query_pattern:
        result = result.join(evaluate_path_pattern(pattern, view))
    return result


_COMPARATORS: Dict[str, Callable] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "like": lambda a, b: str(b) in str(a),
}


def _condition_predicate(condition: Condition) -> Callable[[Dict[str, Term]], bool]:
    compare = _COMPARATORS.get(condition.operator)
    if compare is None:
        raise EvaluationError(f"unsupported operator {condition.operator!r}")

    def predicate(binding: Dict[str, Term]) -> bool:
        left = binding[condition.variable]
        left_value = left.to_python() if isinstance(left, Literal) else left
        if condition.value_is_variable:
            right = binding[str(condition.value)]
            right_value = right.to_python() if isinstance(right, Literal) else right
        else:
            right = condition.value
            right_value = right.to_python() if isinstance(right, Literal) else right
        try:
            return bool(compare(left_value, right_value))
        except TypeError:
            return False

    return predicate


def evaluate_query(
    query: RQLQuery,
    base: Graph,
    schema: Schema,
    default_namespaces: Optional[Dict[str, str]] = None,
) -> BindingTable:
    """Evaluate a parsed RQL query against a local base.

    Applies pattern matching with RDFS entailment, WHERE-clause filters
    and the SELECT projection.
    """
    view = InferredView(base, schema)
    query_pattern = extract_pattern(query, schema, default_namespaces)
    result = evaluate_pattern(query_pattern, view)
    for condition in query.conditions:
        result = result.select(_condition_predicate(condition))
    return result.project(query.effective_projections())


def query(
    text: str,
    base: Graph,
    schema: Schema,
    default_namespaces: Optional[Dict[str, str]] = None,
) -> BindingTable:
    """Parse and evaluate RQL text in one call (the local fast path)."""
    return evaluate_query(parse_query(text), base, schema, default_namespaces)
