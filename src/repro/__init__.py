"""HARMONY reproduction: a scalable distributed vector database.

Python reproduction of "HARMONY: A Scalable Distributed Vector Database
for High-Throughput Approximate Nearest Neighbor Search" (SIGMOD 2025).

Quickstart::

    import numpy as np
    from repro import HarmonyConfig, HarmonyDB

    rng = np.random.default_rng(0)
    base = rng.standard_normal((10_000, 128)).astype(np.float32)
    queries = rng.standard_normal((100, 128)).astype(np.float32)

    db = HarmonyDB(dim=128, config=HarmonyConfig(n_machines=4))
    db.build(base, sample_queries=queries)
    result, report = db.search(queries, k=10)
    print(result.ids[0], report.qps, report.plan_summary)

Architecture (bottom-up):

- :mod:`repro.distance` — metrics, batch kernels, partial distances.
- :mod:`repro.index` — k-means, IVF-Flat, the Faiss-like baseline, and
  the HNSW and SQ8 indexes the paper's motivation compares against.
- :mod:`repro.cluster` — discrete-event cluster simulator; faults are
  static machine failures (``fail_worker``, replicas,
  :class:`RecoveryManager`) that every backend honours alike, plus the
  host chaos harness that kills and slows real pool workers.
- :mod:`repro.data` / :mod:`repro.workload` — dataset analogues, exact
  ground truth and recall@K, and (skewed) query workloads.
- :mod:`repro.core` — partition plans, cost model, planner, pipelined
  pruning engine, the :class:`HarmonyDB` facade, and nprobe / cluster
  sizing for a recall + throughput target.
- :mod:`repro.cache` — the result cache (:class:`ResultCache`): exact,
  byte-identical hits for repeated, skewed serving traffic.
- :mod:`repro.serve` — the coalescing online-serving front end
  (:class:`HarmonyServer`).
- :mod:`repro.obs` — span tracing, metrics, and their Chrome trace /
  Prometheus exports.
- :mod:`repro.baselines` — the Auncel-like and distributed-graph
  comparators.

``tests/test_surface.py`` holds the reachability table: every module
here is reached from a paper-map row, a perf-ledger workload, a CLI
command or a documented API entry with a caller, or it is deleted.
"""

from repro.cache import CacheHit, CacheStats, ResultCache
from repro.cluster.cluster import WorkerUnavailableError
from repro.cluster.recovery import RecoveryManager, ReplicaDirectory
from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB
from repro.core.executor import (
    Backend,
    ScanKernel,
    SerialBackend,
)
from repro.core.results import (
    BuildReport,
    DegradedReport,
    ExecutionReport,
    FaultStats,
    SearchResult,
)
from repro.distance.metrics import Metric
from repro.serve import HarmonyServer, ServeResponse
from repro.validation import ExactnessReport, check_exactness

__version__ = "1.0.0"

__all__ = [
    "Backend",
    "BuildReport",
    "CacheHit",
    "CacheStats",
    "DegradedReport",
    "ExactnessReport",
    "ExecutionReport",
    "FaultStats",
    "HarmonyConfig",
    "HarmonyDB",
    "HarmonyServer",
    "Metric",
    "Mode",
    "RecoveryManager",
    "ReplicaDirectory",
    "ResultCache",
    "ScanKernel",
    "SearchResult",
    "SerialBackend",
    "ServeResponse",
    "WorkerUnavailableError",
    "check_exactness",
    "__version__",
]
