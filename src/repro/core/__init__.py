"""HARMONY core: partition plans, cost model, planner, pipelined engine.

This package is the paper's primary contribution:

- :mod:`~repro.core.partition` — multi-granularity (vector x dimension)
  partition plans (Section 4.1),
- :mod:`~repro.core.cost_model` / :mod:`~repro.core.planner` — the
  fine-grained query planner (Section 4.2),
- :mod:`~repro.core.routing` — query load distribution and dimension-
  order scheduling (Sections 4.2.2, 4.3),
- :mod:`~repro.core.executor` — the backend-agnostic execution core:
  one :class:`ScanKernel` (Section 4.3, Algorithm 1) behind the
  serial, thread, and simulated backends,
- :mod:`~repro.core.pruning` / :mod:`~repro.core.pipeline` — lossless
  dimension-level early-stop pruning and the simulated timing shell,
- :mod:`~repro.core.database` — the :class:`HarmonyDB` facade.
"""

from repro.core.config import HarmonyConfig, Mode, resolve_mode
from repro.core.cost_model import (
    CostParameters,
    PlanCost,
    WorkloadProfile,
    communication_seconds,
    imbalance_factor,
    node_loads,
    plan_cost,
)
from repro.core.capacity import CapacityPlan, plan_capacity
from repro.core.database import HarmonyDB
from repro.core.executor import (
    Backend,
    QueryState,
    ScanKernel,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.core.heap import TopKHeap
from repro.core.monitor import DriftMonitor, DriftStatus
from repro.core.partition import (
    PartitionPlan,
    assign_lists_balanced,
    assign_lists_contiguous,
    build_plan,
    grid_shapes,
    round_robin_placement,
)
from repro.core.pipeline import PipelineEngine
from repro.core.planner import PlanDecision, QueryPlanner
from repro.core.pruning import PruningStats, ShardScan
from repro.core.results import (
    BuildReport,
    ExecutionReport,
    PlacementReport,
    SearchResult,
)
from repro.core.routing import (
    shard_candidate_lists,
    staggered_order,
    touched_shards,
)

__all__ = [
    "Backend",
    "BuildReport",
    "CapacityPlan",
    "CostParameters",
    "DriftMonitor",
    "DriftStatus",
    "ExecutionReport",
    "HarmonyConfig",
    "HarmonyDB",
    "Mode",
    "PartitionPlan",
    "PipelineEngine",
    "PlacementReport",
    "PlanCost",
    "PlanDecision",
    "PruningStats",
    "QueryPlanner",
    "QueryState",
    "ScanKernel",
    "SearchResult",
    "SerialBackend",
    "ShardScan",
    "ThreadBackend",
    "TopKHeap",
    "WorkloadProfile",
    "assign_lists_balanced",
    "assign_lists_contiguous",
    "build_plan",
    "communication_seconds",
    "grid_shapes",
    "imbalance_factor",
    "node_loads",
    "plan_capacity",
    "plan_cost",
    "resolve_backend",
    "resolve_mode",
    "round_robin_placement",
    "shard_candidate_lists",
    "staggered_order",
    "touched_shards",
]
