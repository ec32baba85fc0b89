"""SQPeer's core: routing, planning, optimisation, shipping, adaptivity."""

from .algebra import (
    Hole,
    Join,
    PlanNode,
    Scan,
    Union,
    count_scans,
    depth,
    flatten,
    join_of,
    substitute_hole,
    union_of,
)
from .annotations import AnnotatedQueryPattern, PeerAnnotation
from .adaptivity import ChannelMonitor
from .constraints import QueryConstraints, UNCONSTRAINED, apply_peer_bound
from .cost import CostEstimate, CostModel, Statistics
from .optimizer import (
    OptimizationTrace,
    distribute_joins_over_unions,
    merge_same_peer_scans,
    optimize,
)
from .planning import build_plan, plan_is_executable
from .routing import route_query
from .shipping import (
    ShippingPolicy,
    SiteAssignment,
    assign_sites,
    compare_policies,
)

__all__ = [
    "AnnotatedQueryPattern",
    "ChannelMonitor",
    "CostEstimate",
    "CostModel",
    "Hole",
    "Join",
    "OptimizationTrace",
    "PeerAnnotation",
    "PlanNode",
    "QueryConstraints",
    "UNCONSTRAINED",
    "apply_peer_bound",
    "Scan",
    "ShippingPolicy",
    "SiteAssignment",
    "Statistics",
    "Union",
    "assign_sites",
    "build_plan",
    "compare_policies",
    "count_scans",
    "depth",
    "distribute_joins_over_unions",
    "flatten",
    "join_of",
    "merge_same_peer_scans",
    "optimize",
    "plan_is_executable",
    "route_query",
    "substitute_hole",
    "union_of",
]
