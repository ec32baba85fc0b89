"""SQPeer — semantic query routing and processing for P2P RDF/S bases.

A reproduction of "Semantic Query Routing and Processing in P2P
Database Systems: The ICS-FORTH SQPeer Middleware" (Kokkinidis &
Christophides, 2004).

The public API re-exports the pieces a downstream user composes:

* the RDF/S substrate (:mod:`repro.rdf`),
* the RQL/RVL languages (:mod:`repro.rql`, :mod:`repro.rvl`),
* the core routing/planning/optimisation pipeline (:mod:`repro.core`),
* the two deployable architectures (:mod:`repro.systems`),
* the paper's scenarios and synthetic workloads
  (:mod:`repro.workloads`).

Quickstart::

    from repro import HybridSystem
    from repro.workloads import hybrid_scenario, PAPER_QUERY

    system = HybridSystem.from_scenario(hybrid_scenario())
    table = system.query("P1", PAPER_QUERY)
    for binding in table.bindings():
        print(binding)
"""

from .errors import (
    ChannelError,
    EvaluationError,
    MappingError,
    NetworkError,
    ParseError,
    PeerError,
    PlanningError,
    RoutingError,
    SQPeerError,
    SchemaError,
)
from .core import (
    CostModel,
    Statistics,
    assign_sites,
    build_plan,
    optimize,
    route_query,
)
from .rdf import Graph, Literal, Namespace, Schema, Triple, URI
from .rql import BindingTable, parse_query, pattern_from_text, query
from .rvl import ActiveSchema, parse_view
from .systems import AdhocSystem, HybridSystem

__version__ = "1.0.0"

__all__ = [
    "ActiveSchema",
    "AdhocSystem",
    "BindingTable",
    "ChannelError",
    "CostModel",
    "EvaluationError",
    "Graph",
    "HybridSystem",
    "Literal",
    "MappingError",
    "Namespace",
    "NetworkError",
    "ParseError",
    "PeerError",
    "PlanningError",
    "RoutingError",
    "SQPeerError",
    "Schema",
    "SchemaError",
    "Statistics",
    "Triple",
    "URI",
    "assign_sites",
    "build_plan",
    "optimize",
    "parse_query",
    "parse_view",
    "pattern_from_text",
    "query",
    "route_query",
    "__version__",
]
