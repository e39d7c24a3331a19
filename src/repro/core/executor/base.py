"""Backend interface: *where* the scan kernel's steps run.

A backend binds the algorithm (one shared :class:`ScanKernel`) to an
execution substrate. The library ships four:

- :class:`~repro.core.executor.serial.SerialBackend` — a plain loop,
  the reference oracle;
- :class:`~repro.core.executor.threads.ThreadBackend` — real host
  threads, queries fanned out across a persistent pool;
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
import time

import numpy as np

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
    #: lane per worker thread; the simulator forwards it to its cluster
    #: — a :class:`~repro.cluster.host_faults.HostFaultInjector`
    #: driving deterministic chaos, which only host backends consult;
    #: the deployment's :class:`~repro.cluster.cluster.Cluster`, whose
    #: failed workers every backend honors (the simulator also runs on
    #: it), and the live
    #: :class:`~repro.cluster.recovery.ReplicaDirectory`, which
    #: overrides the plan's static replica placement (the simulator
    #: routes by machine; host backends skip the shards it leaves
    #: without a live copy).
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
        filter_labels: "np.ndarray | list[int] | None" = None,
        arrival_times: np.ndarray | None = None,
    ) -> "tuple[SearchResult, ExecutionReport]":
        """Pruned top-``k`` search for a query batch: the answers and
        this execution's report. ``arrival_times`` (open-loop simulated
        arrivals) is the simulator's; other backends refuse it."""

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

    Args:
        index: trained+populated IVF index.
        plan: partition plan; defaults to :func:`default_plan`.
        batch_queries: route multi-query batches through the kernel's
            fused shard-major ``search_batch`` path (bitwise identical
            to the per-query loop); False forces one ``search_one``
            call per query.
        degraded_mode: :meth:`run` serves partial results, with
            coverage accounting, when the deployment's cluster has
            lost every copy of a shard, instead of raising.
        **kernel_options: every other keyword — ``prewarm_size``,
            ``enable_pruning``, ``scan_precision``,
            ``delta_compact_ratio``, ``auto_compact``,
            ``routing_cache_size`` — goes to the one signature that
            owns it, :class:`~repro.core.executor.kernel.ScanKernel`.
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
        #: Recovery activity (respawns / requeues / abandons) the pools
        #: count where they act; :meth:`run` hands it to its report
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
        filter_labels: "np.ndarray | list[int] | None" = None,
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
        result = self.search(
            queries, k, nprobe, filter_labels, skip_shards, coverage
        )
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
                    self.index.allowed_mask(filter_labels),
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

    def _shards_without_a_live_copy(self) -> "frozenset[int] | None":
        """What the deployment cluster's failed workers cost this plan:
        the shards :meth:`run` must skip, None when there are none.

        Raises when a shard is lost and ``degraded_mode`` is off.
        """
        cluster = self.cluster
        if cluster is None:
            return None
        if not cluster.failed_workers:
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

    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int = 1,
        filter_labels: "np.ndarray | list[int] | None" = None,
        skip_shards: "frozenset[int] | set[int] | None" = None,
        coverage: np.ndarray | None = None,
    ) -> SearchResult:
        """Pruned top-``k`` search, exact w.r.t. a single-node IVF scan:
        the report-free scan entry :meth:`run` times.

        ``skip_shards`` / ``coverage`` are the degraded-mode hooks (see
        :meth:`ScanKernel.search_one`): skipped shards' candidates are
        counted but never scored, so host backends serve the same
        coverage-flagged partial results the simulator does.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        kernel = self.kernel
        tracer = self.tracer
        kernel.tracer = tracer  # per-(shard, slice) wall spans when set
        queries, probes, allowed = self._route(queries, nprobe, filter_labels)
        nq = queries.shape[0]
        if self.batch_queries and nq > 1:
            heaps = kernel.search_batch(
                queries, probes, k, allowed,
                map_groups=self._traced_group_mapper(),
                skip_shards=skip_shards,
                coverage=coverage,
            )
        else:
            heaps = [None] * nq

            def run_query(i: int) -> None:
                heaps[i] = kernel.search_one(
                    i, queries[i], probes[i], k, allowed,
                    skip_shards=skip_shards, coverage=coverage,
                )

            def traced_query(i: int) -> None:
                with tracer.wall_span("query", "computation", query=i):
                    run_query(i)

            self._map(run_query if tracer is None else traced_query, nq)
        return collect_results(heaps, k)

    def _route(self, queries, nprobe: int, filter_labels):
        """Canonical queries, their probed lists (a ``route`` wall span
        when traced) and the filter's admissibility mask."""
        queries = self.kernel.prepare_queries(queries)
        tracer = self.tracer
        with contextlib.nullcontext() if tracer is None else tracer.wall_span(
            "route", "computation", n=queries.shape[0]
        ):
            probes = self.index.probe(queries, nprobe)
        return queries, probes, self.index.allowed_mask(filter_labels)

    @abc.abstractmethod
    def _map(self, fn, nq: int) -> None:
        """Run ``fn(i)`` for every query index; substrate-specific."""

    def _group_mapper(self):
        """Optional concurrent executor for batched shard-groups.

        Returns ``fn(task, shards)`` running ``task(shard)`` for every
        shard, or None to process groups sequentially in shard order
        (the serial default).
        """
        return None

    def _traced_group_mapper(self):
        """The group mapper, wrapping each shard task in a wall span.

        With no tracer attached this is exactly ``_group_mapper()``;
        with one, each shard-group's wall-clock interval is recorded
        on the executing thread's lane (results are unchanged — the
        backend contract fixes *what* is computed).
        """
        mapper = self._group_mapper()
        tracer = self.tracer
        if tracer is None:
            return mapper

        def traced(task, shards) -> None:
            def traced_task(shard) -> None:
                with tracer.wall_span(
                    "shard-group", "computation", shard=int(shard)
                ):
                    task(shard)

            if mapper is None:
                for shard in shards:
                    traced_task(shard)
            else:
                mapper(traced_task, shards)

        return traced


BACKENDS: dict[str, str] = {
    "sim": "repro.core.pipeline:PipelineEngine",
    "thread": "repro.core.executor.threads:ThreadBackend",
    "serial": "repro.core.executor.serial:SerialBackend",
    "process": "repro.core.executor.process:ProcessBackend",
}


def resolve_backend(name: str) -> type:
    """Map a backend name (``sim``/``thread``/``serial``/``process``)
    to its class."""
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
