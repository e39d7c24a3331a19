"""Result and report types returned by the execution engine."""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from repro.cluster.stats import TimeBreakdown
from repro.core.pruning import PruningStats


@dataclass(frozen=True)
class SearchResult:
    """Top-K answers for a query batch.

    Attributes:
        distances: ``(nq, k)`` scores, ascending per row (squared L2, or
            negated similarity); padded with ``+inf`` when fewer than
            ``k`` candidates exist.
        ids: ``(nq, k)`` global vector ids, padded with ``-1``.
    """

    distances: np.ndarray
    ids: np.ndarray

    @property
    def n_queries(self) -> int:
        return int(self.ids.shape[0])

    @property
    def k(self) -> int:
        return int(self.ids.shape[1])


@dataclass
class FaultStats:
    """Fault-handling activity observed during one search batch.

    The one counters record on every backend: the simulator fills it
    per batch, and a host backend's pools count into their own
    (``fault_counters``) until :meth:`HostBackend.run` hands it to the
    report.

    Attributes:
        skipped_scans: shard scans skipped at dispatch because no live
            replica existed (``degraded_mode`` only).
        abandoned_scans: process-pool tasks abandoned mid-batch once
            requeue rounds stop completing them (``degraded_mode``
            only).
        worker_respawns: dead host-backend worker processes replaced
            by the supervisor during the batch.
        tasks_requeued: process-pool chunks of queries re-issued to
            surviving workers after a worker death or injected kill.
    """

    skipped_scans: int = 0
    abandoned_scans: int = 0
    worker_respawns: int = 0
    tasks_requeued: int = 0

    @property
    def any_activity(self) -> bool:
        return any(vars(self).values())

    def to_dict(self) -> dict:
        return dict(vars(self))  # the declared counters, in field order


@dataclass
class DegradedReport:
    """Availability / accuracy accounting for a degraded-mode search.

    Attributes:
        coverage: per-query fraction of the candidate set actually
            scanned, in ``[0, 1]``; ``1.0`` means the result is exact
            (identical to a healthy cluster's answer).
        n_degraded_queries: queries with coverage below 1.0.
        skipped_scans / abandoned_scans: shard scans lost to dead
            replicas at dispatch / to dead pool workers mid-batch.
        recall_vs_healthy: mean overlap between degraded and healthy
            top-k id sets over the *degraded* queries only (``1.0``
            when no query was degraded — nothing was lost).
    """

    coverage: np.ndarray
    n_degraded_queries: int = 0
    skipped_scans: int = 0
    abandoned_scans: int = 0
    recall_vs_healthy: float = 1.0

    @classmethod
    def from_counts(
        cls,
        counts: np.ndarray,
        skipped_scans: int,
        abandoned_scans: int,
        recall_of,
    ) -> "DegradedReport":
        """Build the report from ``(nq, 2)`` per-query ``[scanned,
        total]`` candidate counts — what every executor accumulates
        under ``degraded_mode``. ``recall_of(degraded_idx)`` re-runs the
        degraded queries healthy and returns their mean overlap."""
        scanned, total = counts[:, 0], counts[:, 1]
        degraded_idx = np.flatnonzero(scanned < total)
        return cls(
            coverage=np.where(
                total > 0, scanned / np.maximum(total, 1), 1.0
            ),
            n_degraded_queries=int(degraded_idx.size),
            skipped_scans=skipped_scans,
            abandoned_scans=abandoned_scans,
            recall_vs_healthy=recall_of(degraded_idx),
        )

    @property
    def mean_coverage(self) -> float:
        if self.coverage.size == 0:
            return 1.0
        return float(np.mean(self.coverage))

    @property
    def min_coverage(self) -> float:
        if self.coverage.size == 0:
            return 1.0
        return float(np.min(self.coverage))

    @property
    def recall_delta(self) -> float:
        """Recall lost to degradation (``0.0`` when fully covered)."""
        return 1.0 - self.recall_vs_healthy

    def to_dict(self) -> dict:
        return {
            "mean_coverage": self.mean_coverage,
            "min_coverage": self.min_coverage,
            "n_degraded_queries": self.n_degraded_queries,
            "skipped_scans": self.skipped_scans,
            "abandoned_scans": self.abandoned_scans,
            "recall_vs_healthy": self.recall_vs_healthy,
            "recall_delta": self.recall_delta,
        }


def _flat(
    metric=None, *, always=False, default=0, delta_of=None, state_of=None
):
    """A flat numeric report field, declared once.

    ``metric`` is its family ``(kind, harmony_* name, help)``: gauges
    are always published, counters only when non-zero unless
    ``always``. ``delta_of`` / ``state_of`` name the ``(source, key)``
    of a component's own stats snapshot the field is the per-batch
    delta / the end-of-batch value of (see :func:`stamp_from`).
    """
    metadata = {}
    if metric is not None:
        only_nonzero = metric[0] == "counter" and not always
        metadata["metric"] = (*metric, only_nonzero)
    if delta_of or state_of:
        metadata["source"] = (*(delta_of or state_of), delta_of is not None)
    return field(default=default, metadata=metadata)


@dataclass
class ExecutionReport:
    """Simulated-performance record of one search batch.

    Attributes:
        n_queries / k / nprobe: batch parameters.
        simulated_seconds: cluster makespan for the batch.
        breakdown: computation / communication / other seconds summed
            over all nodes (these exceed the makespan when work
            overlaps across machines — that is the parallelism).
        worker_loads: computation seconds per worker, the measured
            ``Load(n, pi)``.
        pruning: per-slice pruning statistics (None when the plan has a
            single dimension block and pruning is structural no-op).
        peak_memory_bytes: maximum resident bytes on any worker,
            including the statically placed index blocks.
        mean_peak_memory_bytes: per-worker peak bytes averaged over
            workers (robust to uneven shard sizes).
        plan_summary: human-readable plan description.
        latencies: per-query latency in seconds; empty when not
            recorded. Simulated runs record dispatch-to-final-merge
            timelines; batches executed by the serving layer record
            each member request's *end-to-end* latency (coalescing
            queue wait + batch service), so percentiles over a served
            batch reflect what individual callers observed rather
            than only the batch's wall time.
        fault_stats: skipped / abandoned scans and pool recovery
            counters (None when the batch saw no fault activity).
        degraded: coverage and recall accounting (None unless the
            search ran with ``degraded_mode=True``).
        trace: span snapshot (:class:`repro.obs.trace.Trace`) of the
            run, when a tracer was attached (None otherwise).
        layout_bytes: resident bytes of the packed (or shared-memory)
            shard layout the executing backend scanned from; ``0``
            when no packed layout was in play (sim backend, packing
            disabled).
        worker_steals: always None. No pool steals work (the process
            pool's parent hands out every task); the field stays only
            because the perf ledger reads it.
        rerank_candidates: survivors re-ranked against fp32 rows during
            the batch (``0`` on the fp32 scan path, where candidate
            scores are already exact).
        code_bytes: resident bytes of the packed SQ8 code blocks —
            the compact representation sq8 candidate scans stream;
            ``0`` on fp32 or when no packed layout was built.
        routing_cache_hits / routing_cache_misses: probe-cell routing
            lookups served from / missing the memoized
            :class:`~repro.core.routing.RoutingCache` during the batch
            (both ``0`` when no cache is attached, e.g. sim backend).
        routing_cache_evictions: routing-cache entries evicted under
            capacity pressure during the batch.
        result_cache_hits / result_cache_misses: queries answered from
            / missing the deployment's :class:`repro.cache.ResultCache`
            during the batch (all ``0`` when caching is disabled).
        result_cache_evictions: result-cache entries evicted under
            capacity pressure during the batch.
        result_cache_invalidations: cached entries dropped by index /
            layout generation moves during the batch.
        result_cache_bytes: resident bytes of the result cache at
            batch end (queries + cached answers; a gauge, not a
            delta).
        queue_seconds: time the batch's requests spent waiting in the
            serving layer's coalescing buffer, summed over requests;
            ``0.0`` outside the serving path.
        layout_generation: base-generation counter of the packed layout
            the batch scanned (bumps only on full rebuilds/compactions;
            ``0`` when no packed layout was in play).
        delta_rows: mutation rows pending in the layout's delta
            segments at batch end — absorbed writes not yet merged
            into the base generation.
        tombstones_pending: removals tombstoned since the base
            generation was built (masked at scan time, reclaimed by
            the next compaction).
        layout_builds / layout_refreshes / layout_compactions: full
            layout constructions, in-place delta refreshes, and
            delta-merge compactions performed during this batch (a
            steady-state read batch reports zeros for all three).
    """

    n_queries: int = _flat(
        ("counter", "harmony_queries_total", "Queries served"),
        always=True,
        default=MISSING,
    )
    k: int
    nprobe: int
    simulated_seconds: float = _flat(
        ("gauge", "harmony_simulated_seconds", "Batch makespan (simulated)"),
        default=MISSING,
    )
    breakdown: TimeBreakdown
    worker_loads: np.ndarray
    pruning: PruningStats | None
    peak_memory_bytes: int
    mean_peak_memory_bytes: float = 0.0
    plan_summary: str = ""
    latencies: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64)
    )
    fault_stats: FaultStats | None = None
    degraded: DegradedReport | None = None
    trace: "object | None" = None
    layout_bytes: int = _flat(
        ("gauge", "harmony_layout_bytes",
         "Resident bytes of the packed/shared shard layout scanned"),
    )
    worker_steals: "list[int] | None" = None
    rerank_candidates: int = _flat(
        ("counter", "harmony_rerank_candidates_total",
         "Survivors re-ranked against fp32 rows (sq8 scan path)"),
    )
    code_bytes: int = _flat(
        ("gauge", "harmony_code_bytes",
         "Resident bytes of the packed SQ8 code blocks (0 on fp32)"),
    )
    routing_cache_hits: int = _flat(
        ("counter", "harmony_routing_cache_hits_total",
         "Probe-cell routing lookups served from the memoized cache"),
        delta_of=("routing", "hits"),
    )
    routing_cache_misses: int = _flat(
        ("counter", "harmony_routing_cache_misses_total",
         "Probe-cell routing lookups that recomputed touched shards"),
        delta_of=("routing", "misses"),
    )
    routing_cache_evictions: int = _flat(
        ("counter", "harmony_routing_cache_evictions_total",
         "Routing-cache entries evicted under capacity pressure"),
        delta_of=("routing", "evictions"),
    )
    result_cache_hits: int = _flat(
        ("counter", "harmony_result_cache_hits_total",
         "Queries answered from the result cache"),
        delta_of=("result_cache", "hits"),
    )
    result_cache_misses: int = _flat(
        ("counter", "harmony_result_cache_misses_total",
         "Queries that missed the result cache and were scanned"),
        delta_of=("result_cache", "misses"),
    )
    result_cache_evictions: int = _flat(
        ("counter", "harmony_result_cache_evictions_total",
         "Result-cache entries evicted under capacity pressure"),
        delta_of=("result_cache", "evictions"),
    )
    result_cache_invalidations: int = _flat(
        ("counter", "harmony_result_cache_invalidations_total",
         "Result-cache entries dropped by index/layout generation moves"),
        delta_of=("result_cache", "invalidations"),
    )
    result_cache_bytes: int = _flat(
        ("gauge", "harmony_result_cache_bytes",
         "Resident bytes of the result cache (queries + cached answers)"),
        state_of=("result_cache", "bytes"),
    )
    queue_seconds: float = _flat(
        ("counter", "harmony_queue_wait_seconds_total",
         "Serving-layer coalescing queue wait, summed over requests"),
        default=0.0,
    )
    layout_generation: int = _flat(
        ("gauge", "harmony_layout_generation",
         "Base-generation counter of the scanned packed layout"),
        state_of=("layout", "layout_generation"),
    )
    delta_rows: int = _flat(
        ("gauge", "harmony_delta_rows",
         "Mutation rows pending in the layout's delta segments"),
        state_of=("layout", "delta_rows"),
    )
    tombstones_pending: int = _flat(
        ("gauge", "harmony_tombstones_pending",
         "Removals tombstoned since the base generation was built"),
        state_of=("layout", "tombstones_since_build"),
    )
    layout_builds: int = _flat(delta_of=("layout", "layout_builds"))
    layout_refreshes: int = _flat(
        ("counter", "harmony_layout_refreshes_total",
         "In-place delta refreshes of the packed layout"),
        delta_of=("layout", "layout_refreshes"),
    )
    layout_compactions: int = _flat(
        ("counter", "harmony_compactions_total",
         "Delta-merge compactions into a fresh base generation"),
        delta_of=("layout", "layout_compactions"),
    )

    @classmethod
    def host_timed(
        cls, n_queries, k, nprobe, plan, served_by, breakdown, **fields
    ) -> "ExecutionReport":
        """Report of a batch timed on the host: ``simulated_seconds`` is
        the measured wall-clock in ``breakdown`` and no simulated worker
        did anything. ``served_by`` names what answered (a host
        backend, the result cache) beside the plan."""
        return cls(
            n_queries=n_queries,
            k=k,
            nprobe=nprobe,
            simulated_seconds=breakdown.total,
            breakdown=breakdown,
            worker_loads=np.zeros(plan.n_machines, dtype=np.float64),
            pruning=None,
            peak_memory_bytes=0,
            plan_summary=f"{plan.describe()} [{served_by}]",
            **fields,
        )

    @property
    def qps(self) -> float:
        """Simulated queries per second.

        ``0.0`` for an empty / zero-duration batch: there is no
        meaningful throughput to report, and ``0.0`` (unlike ``inf``)
        survives strict JSON serialization.
        """
        if self.simulated_seconds <= 0.0:
            return 0.0
        return self.n_queries / self.simulated_seconds

    @property
    def load_imbalance(self) -> float:
        """Standard deviation of worker loads (paper's ``I(pi)``)."""
        return float(np.std(self.worker_loads))

    @property
    def normalized_imbalance(self) -> float:
        """Coefficient of variation of worker loads (scale-free skew)."""
        mean = float(np.mean(self.worker_loads))
        if mean <= 0.0:
            return 0.0
        return float(np.std(self.worker_loads) / mean)

    def latency_percentile(self, percentile: float) -> float:
        """Simulated per-query latency percentile in seconds.

        ANN serving is latency-sensitive (the paper's "milliseconds
        matter" motivation); ``latency_percentile(99)`` gives the tail.

        Raises:
            ValueError: for percentiles outside [0, 100].
            RuntimeError: when latencies were not recorded.
        """
        if not 0.0 <= percentile <= 100.0:
            raise ValueError(
                f"percentile must be in [0, 100], got {percentile}"
            )
        if self.latencies.size == 0:
            raise RuntimeError("no per-query latencies were recorded")
        return float(np.percentile(self.latencies, percentile))

    @property
    def mean_latency(self) -> float:
        """Mean simulated per-query latency in seconds."""
        if self.latencies.size == 0:
            raise RuntimeError("no per-query latencies were recorded")
        return float(np.mean(self.latencies))

    def worker_utilization(self) -> np.ndarray:
        """Per-worker computation busy fraction of the makespan."""
        if self.simulated_seconds <= 0.0:
            return np.zeros_like(self.worker_loads)
        return self.worker_loads / self.simulated_seconds

    def to_dict(self) -> dict:
        """Strictly JSON-serializable summary (for dashboards / logging).

        Every value survives ``json.dumps(..., allow_nan=False)`` —
        no ``inf`` / ``nan`` can appear regardless of batch contents.
        """
        out = {
            "n_queries": self.n_queries,
            "k": self.k,
            "nprobe": self.nprobe,
            "simulated_seconds": float(self.simulated_seconds),
            "qps": self.qps,
            "plan": self.plan_summary,
            "breakdown": {
                "computation": self.breakdown.computation,
                "communication": self.breakdown.communication,
                "other": self.breakdown.other,
            },
            "worker_loads": self.worker_loads.tolist(),
            "load_imbalance": self.load_imbalance,
            "normalized_imbalance": self.normalized_imbalance,
        }
        values = vars(self)
        for name, cast in _FLAT_FIELDS:
            if name not in out:
                out[name] = cast(values[name])
        if self.latencies.size:
            out["latency"] = {
                "mean": self.mean_latency,
                "p50": self.latency_percentile(50),
                "p95": self.latency_percentile(95),
                "p99": self.latency_percentile(99),
            }
        if self.pruning is not None:
            out["pruning_ratios"] = self.pruning.ratios().tolist()
        if self.fault_stats is not None:
            out["fault_stats"] = self.fault_stats.to_dict()
        if self.degraded is not None:
            out["degraded"] = self.degraded.to_dict()
        if self.trace is not None:
            out["trace"] = self.trace.to_dict()
        return out


#: ``(field, cast)`` of every flat numeric field, for ``to_dict``.
_FLAT_FIELDS = tuple(
    (f.name, int if f.type == "int" else float)
    for f in fields(ExecutionReport)
    if f.type in ("int", "float")
)

#: ``(field, kind, family, help, only when non-zero)`` of every flat
#: field that has a metric family; ``repro.obs.report_metrics`` loops
#: over it.
REPORT_FAMILIES = tuple(
    (f.name, *f.metadata["metric"])
    for f in fields(ExecutionReport)
    if "metric" in f.metadata
)


def _sourced_fields() -> "dict[str, list]":
    """``source -> [(field, key, is a delta), ...]`` of the fields
    copied off a component's stats snapshot."""
    table: "dict[str, list]" = {}
    for f in fields(ExecutionReport):
        if "source" in f.metadata:
            source, key, is_delta = f.metadata["source"]
            table.setdefault(source, []).append((f.name, key, is_delta))
    return table


_SOURCED = _sourced_fields()


def stamp_from(report: ExecutionReport, source: str, before, after) -> None:
    """Fill every report field fed by ``source`` from two of the
    source's own stats snapshots (mappings): counters become the
    batch's ``after - before``, gauges the end-of-batch value."""
    for name, key, is_delta in _SOURCED[source]:
        value = after[key]
        setattr(report, name, value - before[key] if is_delta else value)


@dataclass
class PlacementReport:
    """Outcome of distributing index blocks to machines.

    Attributes:
        per_machine_bytes: resident index bytes per worker.
        preassign_seconds: simulated time to ship and prepare blocks
            (the "Pre-assign" stage of the paper's Figure 10).
    """

    per_machine_bytes: dict[int, int] = field(default_factory=dict)
    preassign_seconds: float = 0.0

    @property
    def max_machine_bytes(self) -> int:
        if not self.per_machine_bytes:
            return 0
        return max(self.per_machine_bytes.values())

    @property
    def mean_machine_bytes(self) -> float:
        if not self.per_machine_bytes:
            return 0.0
        return sum(self.per_machine_bytes.values()) / len(
            self.per_machine_bytes
        )

    @property
    def total_bytes(self) -> int:
        return sum(self.per_machine_bytes.values())


@dataclass(frozen=True)
class BuildReport:
    """Index construction timing (paper Figure 10's three stages)."""

    train_seconds: float
    add_seconds: float
    preassign_seconds: float
    placement: PlacementReport
