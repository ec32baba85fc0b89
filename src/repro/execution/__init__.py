"""Distributed query execution over channels."""

from .batch import BindingBatch, concat_tables
from .encoded import EncodedBase, EncodedTable, evaluate_scan_encoded
from .engine import Completion, ExecutionStrategy, ExecutorHost, PlanExecutor
from .operators import finalize_encoded, vjoin_all_distinct, vunion_all_distinct

__all__ = [
    "BindingBatch",
    "Completion",
    "EncodedBase",
    "EncodedTable",
    "ExecutionStrategy",
    "ExecutorHost",
    "PlanExecutor",
    "concat_tables",
    "evaluate_scan_encoded",
    "finalize_encoded",
    "vjoin_all_distinct",
    "vunion_all_distinct",
]
