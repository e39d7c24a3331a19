"""Backend interface: *where* the scan kernel's steps run.

A backend binds the algorithm (one shared :class:`ScanKernel`) to an
execution substrate. The library ships three:

- :class:`~repro.core.executor.serial.SerialBackend` — a plain loop on
  the caller's thread, the reference oracle;
- :class:`~repro.core.executor.process.ProcessBackend` — persistent
  worker processes scanning shared-memory shard layouts, each handed
  its tasks by the parent (multi-core without the GIL);
- :class:`~repro.core.pipeline.PipelineEngine` — the discrete-event
  cluster, charging compute/comm to machine timelines.

Adding another substrate (async server, RPC fan-out) is a one-file
change: subclass :class:`Backend`, reuse the kernel.
"""

from __future__ import annotations

import abc
import contextlib
import operator
import time

import numpy as np

from repro.cluster.host_faults import sleep_for_delay
from repro.cluster.stats import TimeBreakdown
from repro.core.executor.kernel import (
    ScanKernel,
    collect_results,
    recall_vs_healthy,
)
from repro.core.partition import PartitionPlan, build_plan
from repro.core.results import (
    DegradedReport,
    ExecutionReport,
    FaultStats,
    SearchResult,
    stamp_from,
)


def check_k(k) -> int:
    """``k`` as an ``int``, refused unless it is a positive integer
    (numpy integers pass): the one check ``HarmonyDB.search``,
    ``HarmonyServer.submit`` and every backend's search make, so a
    float ``k`` fails here, named, instead of deep in a heap slice."""
    try:
        value = operator.index(k)
    except TypeError:
        value = 0
    if value <= 0:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return value


class Backend(abc.ABC):
    """Uniform search interface over one ``(index, plan)`` pair.

    The contract every implementation is tested on: :meth:`run` returns
    byte-identical ids and distances to every other backend with the
    same parameters — the substrate may only change *when* work runs,
    never *what* is computed — beside that execution's own report.
    One rule governs the report: *a number in it is taken in the pass
    that does the work, never recomputed afterwards to fill it.*
    """

    #: Short name used by ``HarmonyConfig.backend`` / ``--backend``.
    name: str = "abstract"

    #: Deployment state a ``HarmonyDB`` hands the executor it builds
    #: (None = off, and the hot path stays free of it): a
    #: ``repro.obs.Tracer`` — host backends record wall-clock spans, one
    #: lane per caller thread; the simulator forwards it to its cluster
    #: — a :class:`~repro.cluster.host_faults.HostFaultInjector`
    #: driving deterministic chaos, which only host backends consult;
    #: the deployment's :class:`~repro.cluster.cluster.Cluster`, whose
    #: failed workers every backend honors (the simulator also runs on
    #: it), and the live
    #: :class:`~repro.cluster.recovery.ReplicaDirectory`, which
    #: overrides the plan's static replica placement (every backend
    #: skips the shards it leaves without a live copy; the simulator
    #: also routes each block to a live holder).
    tracer = None
    chaos = None
    cluster = None
    replica_directory = None

    @classmethod
    def deploy(cls, index, plan, cluster, config) -> "Backend":
        """This backend as ``HarmonyDB`` builds it for a deployment."""
        backend = cls(index, plan=plan, **config.host_options())
        backend.cluster = cluster
        return backend

    @abc.abstractmethod
    def run(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int,
        arrival_times: np.ndarray | None = None,
    ) -> "tuple[SearchResult, ExecutionReport]":
        """Pruned top-``k`` search for a query batch: the answers and
        this execution's report. ``arrival_times`` (open-loop simulated
        arrivals) is the simulator's; other backends refuse it."""

    def _shards_without_a_live_copy(self) -> "frozenset[int] | None":
        """What the deployment cluster's failed workers cost this plan:
        the shards :meth:`run` must skip, None when there are none —
        every backend's one dead-shard rule, whether or not a query
        touches the shard.

        Raises when a shard is lost and the backend's ``degraded_mode``
        is off.
        """
        cluster = self.cluster
        if cluster is None or not cluster.failed_workers:
            return None
        from repro.cluster.recovery import unavailable_shards

        dead = unavailable_shards(cluster, self.plan, self.replica_directory)
        if dead and not self.degraded_mode:
            raise RuntimeError(
                f"no live replica of grid blocks of shard {min(dead)}; "
                f"failed workers: {sorted(cluster.failed_workers)}; "
                f"enable degraded_mode to serve partial results"
            )
        return frozenset(dead) or None

    def close(self) -> None:
        """Release execution resources (pools, shared memory).

        Idempotent, and a no-op for backends without persistent
        resources; a closed backend may lazily re-acquire resources on
        the next ``search()``.
        """

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def default_plan(index: "IVFFlatIndex") -> PartitionPlan:
    """Single-shard plan with up to 4 dimension slices (pruning-friendly)."""
    n_blocks = min(4, index.dim)
    return build_plan(
        index,
        n_machines=n_blocks,
        n_vector_shards=1,
        n_dim_blocks=n_blocks,
    )


class HostBackend(Backend):
    """Shared machinery of the backends that run on the host (no sim).

    Its :meth:`search` runs the whole batch on the caller's thread:
    :class:`~repro.core.executor.serial.SerialBackend` is exactly this
    loop, and the process pool's total-loss fallback reuses it.

    Args:
        index: trained+populated IVF index.
        plan: partition plan; defaults to :func:`default_plan`.
        batch_queries: route multi-query batches through the kernel's
            fused shard-major ``search_batch`` path when pruning is on
            (bitwise identical to the per-query loop); False forces one
            ``search_one`` call per query.
        degraded_mode: :meth:`run` serves partial results, with
            coverage accounting, when the deployment's cluster has
            lost every copy of a shard, instead of raising.
        **kernel_options: every other keyword — ``prewarm_size``,
            ``enable_pruning``, ``scan_precision``,
            ``delta_compact_ratio``, ``auto_compact`` — goes to the one
            signature that owns it,
            :class:`~repro.core.executor.kernel.ScanKernel`.
    """

    def __init__(
        self,
        index: "IVFFlatIndex",
        plan: PartitionPlan | None = None,
        batch_queries: bool = True,
        degraded_mode: bool = False,
        **kernel_options,
    ) -> None:
        if not index.is_trained:
            raise RuntimeError("backend requires a trained index")
        self.index = index
        self.plan = plan if plan is not None else default_plan(index)
        self.batch_queries = batch_queries
        self.degraded_mode = bool(degraded_mode)
        #: Recovery activity (respawns / requeues / abandons) the process
        #: pool counts where it acts; :meth:`run` hands it to its report
        #: and starts a fresh one.
        self.fault_counters = FaultStats()
        self.kernel = ScanKernel(index, self.plan, **kernel_options)

    @property
    def prewarm_size(self) -> int:
        return self.kernel.prewarm_size

    @property
    def enable_pruning(self) -> bool:
        return self.kernel.enable_pruning

    @property
    def scan_precision(self) -> str:
        return self.kernel.scan_precision

    def run(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int = 1,
        arrival_times: np.ndarray | None = None,
    ) -> "tuple[SearchResult, ExecutionReport]":
        """:meth:`search` plus its report, timed on the host.

        Honors the deployment cluster's failure state the way the
        simulator does: a shard with no live copy of some block either
        raises (default) or is skipped with coverage accounting
        (``degraded_mode``). Every count in the report is one the scan
        itself took — coverage from the gathers it performed, skips in
        the loop that skipped — read off the kernel's and the backend's
        own counters before and after; only the queries that came back
        degraded are probed a second time, for the healthy re-run their
        recall is measured against.
        """
        if arrival_times is not None:
            raise ValueError(
                "arrival_times (open-loop simulation) requires the "
                "'sim' backend"
            )
        skip_shards = self._shards_without_a_live_copy()
        kernel = self.kernel
        coverage = None
        if self.degraded_mode:
            coverage = np.zeros(
                (np.atleast_2d(queries).shape[0], 2), dtype=np.int64
            )
        routing_cache = kernel.routing_cache
        layout_before = kernel.layout_stats()
        routing_before = (
            routing_cache.stats() if routing_cache is not None else None
        )
        reranked_before = kernel.rerank_candidates_total
        skipped_before = kernel.skipped_scans_total
        start = time.perf_counter()
        result = self.search(queries, k, nprobe, skip_shards, coverage)
        elapsed = time.perf_counter() - start
        faults, self.fault_counters = self.fault_counters, FaultStats()
        faults.skipped_scans = kernel.skipped_scans_total - skipped_before
        degraded = None
        if coverage is not None:

            def recall_of(degraded_idx: np.ndarray) -> float:
                if degraded_idx.size == 0:
                    return 1.0
                lost = kernel.prepare_queries(
                    np.atleast_2d(queries)[degraded_idx]
                )
                return recall_vs_healthy(
                    kernel,
                    lost,
                    self.index.probe(lost, nprobe),
                    k,
                    np.arange(degraded_idx.size),
                    result.ids[degraded_idx],
                )

            degraded = DegradedReport.from_counts(
                coverage,
                skipped_scans=faults.skipped_scans,
                abandoned_scans=faults.abandoned_scans,
                recall_of=recall_of,
            )
        packed = kernel._packed  # the layout this batch scanned
        report = ExecutionReport.host_timed(
            result.n_queries,
            k,
            nprobe,
            self.plan,
            f"{self.name} backend, host wall-clock",
            TimeBreakdown(computation=elapsed),
            fault_stats=faults if faults.any_activity else None,
            degraded=degraded,
            layout_bytes=0 if packed is None else int(packed.nbytes),
            code_bytes=0 if packed is None else int(packed.codes_nbytes),
            rerank_candidates=(
                kernel.rerank_candidates_total - reranked_before
            ),
            trace=self.tracer.trace() if self.tracer is not None else None,
        )
        stamp_from(report, "layout", layout_before, kernel.layout_stats())
        if routing_cache is not None:
            stamp_from(
                report, "routing", routing_before, routing_cache.stats()
            )
        return result, report

    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int = 1,
        skip_shards: "frozenset[int] | set[int] | None" = None,
        coverage: np.ndarray | None = None,
    ) -> SearchResult:
        """Pruned top-``k`` search, exact w.r.t. a single-node IVF scan:
        the report-free scan entry :meth:`run` times.

        ``skip_shards`` / ``coverage`` are the degraded-mode hooks (see
        :meth:`ScanKernel.search_one`): skipped shards' candidates are
        counted but never scored, so host backends serve the same
        coverage-flagged partial results the simulator does. An attached
        ``chaos`` injector's ``DelayScan`` rules slow the search as a
        whole.
        """
        k = check_k(k)
        start = time.perf_counter()
        kernel = self.kernel
        kernel.tracer = self.tracer  # query, shard-group, slice wall spans
        queries, probes = self._route(queries, nprobe)
        heaps = kernel.search(
            queries, probes, k, skip_shards, coverage,
            batched=self.batch_queries,
        )
        result = collect_results(heaps, k)
        if self.chaos is not None:
            sleep_for_delay(
                self.chaos.search_delay(), time.perf_counter() - start
            )
        return result

    def _route(self, queries, nprobe: int):
        """Canonical queries and their probed lists (a ``route`` wall
        span when traced)."""
        queries = self.kernel.prepare_queries(queries)
        tracer = self.tracer
        with contextlib.nullcontext() if tracer is None else tracer.wall_span(
            "route", "computation", n=queries.shape[0]
        ):
            probes = self.index.probe(queries, nprobe)
        return queries, probes


BACKENDS: dict[str, str] = {
    "sim": "repro.core.pipeline:PipelineEngine",
    "serial": "repro.core.executor.serial:SerialBackend",
    "process": "repro.core.executor.process:ProcessBackend",
}


def resolve_backend(name: str) -> type:
    """Map a backend name (``sim``/``serial``/``process``) to its class."""
    try:
        target = BACKENDS[str(name).lower()]
    except KeyError as exc:
        supported = ", ".join(sorted(BACKENDS))
        raise ValueError(
            f"unknown backend {name!r}; supported backends: {supported}"
        ) from exc
    module_name, _, attr = target.partition(":")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
