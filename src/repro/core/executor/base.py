"""Backend interface: *where* the scan kernel's steps run.

A backend binds the algorithm (one shared :class:`ScanKernel`) to an
execution substrate. The library ships four:

- :class:`~repro.core.executor.serial.SerialBackend` — a plain loop,
  the reference oracle;
- :class:`~repro.core.executor.threads.ThreadBackend` — real host
  threads, queries fanned out across a persistent pool;
- :class:`~repro.core.executor.process.ProcessBackend` — persistent
  worker processes scanning shared-memory shard layouts with
  work-stealing scheduling (multi-core without the GIL);
- :class:`~repro.core.pipeline.PipelineEngine` — the discrete-event
  cluster, charging compute/comm to machine timelines.

Adding another substrate (async server, RPC fan-out) is a one-file
change: subclass :class:`Backend`, reuse the kernel.
"""

from __future__ import annotations

import abc
import contextlib

import numpy as np

from repro.core.executor.kernel import ScanKernel, collect_results
from repro.core.partition import PartitionPlan, build_plan
from repro.core.results import SearchResult


class Backend(abc.ABC):
    """Uniform search interface over one ``(index, plan)`` pair.

    The contract every implementation is tested on: ``search`` returns
    byte-identical ids and distances to every other backend with the
    same parameters — the substrate may only change *when* work runs,
    never *what* is computed.
    """

    #: Short name used by ``HarmonyConfig.backend`` / ``--backend``.
    name: str = "abstract"

    #: Deployment state a ``HarmonyDB`` hands the executor it builds
    #: (None = off, and the hot path stays free of it): a
    #: ``repro.obs.Tracer`` — host backends record wall-clock spans, one
    #: lane per worker thread; the simulator forwards it to its cluster
    #: — a :class:`~repro.cluster.host_faults.HostFaultInjector`
    #: driving deterministic chaos, which only host backends consult,
    #: and the live :class:`~repro.cluster.recovery.ReplicaDirectory`,
    #: which overrides the plan's static replica placement (only the
    #: simulator routes by machine; ``HarmonyDB`` applies it to host
    #: searches as the set of shards to skip).
    tracer = None
    chaos = None
    replica_directory = None

    @classmethod
    def deploy(cls, index, plan, cluster, config) -> "Backend":
        """This backend as ``HarmonyDB`` builds it for a deployment
        (the simulated ``cluster`` is the sim backend's substrate only)."""
        return cls(index, plan=plan, **config.host_options())

    @abc.abstractmethod
    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int = 1,
        filter_labels: "np.ndarray | list[int] | None" = None,
    ) -> SearchResult:
        """Pruned top-``k`` search for a query batch."""

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
        scan_timeout: per-task straggler watchdog in wall-clock
            seconds. ``None`` (default) disables it; when set, a shard
            task exceeding the timeout is speculatively re-issued
            (results are deduplicated, so hedged duplicates stay
            byte-identical), escalating exponentially across
            ``scan_retries`` attempts — the host mirror of the sim
            pipeline's retry/hedge semantics.
        scan_retries: re-issues per straggling task before the
            supervisor gives up (degraded mode then abandons the task
            with coverage accounting; otherwise it keeps waiting).
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
        scan_timeout: "float | None" = None,
        scan_retries: int = 3,
        **kernel_options,
    ) -> None:
        if not index.is_trained:
            raise RuntimeError("backend requires a trained index")
        if scan_timeout is not None and scan_timeout <= 0:
            raise ValueError(
                f"scan_timeout must be positive or None, got {scan_timeout}"
            )
        if scan_retries < 0:
            raise ValueError(
                f"scan_retries must be non-negative, got {scan_retries}"
            )
        from repro.cluster.host_faults import HostFaultCounters

        self.index = index
        self.plan = plan if plan is not None else default_plan(index)
        self.batch_queries = batch_queries
        self.scan_timeout = scan_timeout
        self.scan_retries = int(scan_retries)
        #: Recovery activity (respawns / requeues / timeouts /
        #: abandons) since the last ``fault_counters.take()``.
        self.fault_counters = HostFaultCounters()
        #: Candidates re-ranked against fp32 rows by the most recent
        #: search() call (always 0 on the fp32 path).
        self.last_rerank_count = 0
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

    def layout_nbytes(self) -> int:
        """Resident bytes of the packed shard layout currently cached.

        ``0`` when no layout has been built yet — reported as the
        ``harmony_layout_bytes`` gauge so memory accounting (Table 5)
        sees the packed copy.
        """
        packed = self.kernel._packed
        return 0 if packed is None else int(packed.nbytes)

    def code_nbytes(self) -> int:
        """Resident bytes of the packed SQ8 code blocks (0 on fp32).

        Reported as the ``harmony_code_bytes`` gauge — the compact
        representation candidate scans actually stream on the sq8
        path, next to ``harmony_layout_bytes`` for the whole layout.
        """
        packed = self.kernel._packed
        return 0 if packed is None else int(packed.codes_nbytes)

    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int = 1,
        filter_labels: "np.ndarray | list[int] | None" = None,
        skip_shards: "frozenset[int] | set[int] | None" = None,
        coverage: np.ndarray | None = None,
    ) -> SearchResult:
        """Pruned top-``k`` search, exact w.r.t. a single-node IVF scan.

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
        rerank_before = kernel.rerank_candidates_total
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
        self.last_rerank_count = (
            kernel.rerank_candidates_total - rerank_before
        )
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
