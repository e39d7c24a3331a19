"""HarmonyDB: the public facade of the distributed vector database.

Typical usage::

    from repro import HarmonyConfig, HarmonyDB

    config = HarmonyConfig(n_machines=4, nlist=64, nprobe=8)
    db = HarmonyDB(dim=128, config=config)
    build = db.build(base_vectors, sample_queries=queries[:128])
    result, report = db.search(queries, k=10)
    print(report.qps, report.plan_summary)

``build`` trains the shared IVF clustering, lets the cost-model planner
choose the partition grid for the configured mode, and distributes the
index blocks onto the simulated cluster. ``search`` executes the
pipelined engine and returns exact-for-the-probed-lists answers plus a
full simulated-performance report.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.stats import TimeBreakdown
from repro.core.config import HarmonyConfig, Mode
from repro.core.cost_model import CostParameters, WorkloadProfile
from repro.core.executor.base import check_k
from repro.core.partition import PartitionPlan
from repro.core.pipeline import placement_report
from repro.core.planner import PlanDecision, QueryPlanner
from repro.core.results import (
    BuildReport,
    ExecutionReport,
    SearchResult,
    stamp_from,
)
from repro.index.ivf import IVFFlatIndex, check_vectors, saved_path

#: Config fields that once existed and are still in files saved back
#: then; :meth:`HarmonyDB.load` drops exactly these (a key that was
#: never a field still fails as an unexpected keyword).
_RETIRED_CONFIG_FIELDS = ("serve_deadline_fraction", "scan_timeout", "scan_retries", "serve_deadline_policy", "cache_semantic_epsilon", "retry_timeout", "max_retries", "hedge_latency_threshold", "plan_sample", "kmeans_iterations", "routing_cache_size", "memory_bandwidth", "serve_max_batch", "serve_slo_ms", "serve_queue_depth", "serve_shed_policy")

#: Query-sample size fed to the cost model.
PLAN_SAMPLE = 128


class HarmonyDB:
    """A HARMONY deployment: index + planner + cluster + executor.

    Args:
        dim: vector dimensionality.
        config: deployment configuration (see :class:`HarmonyConfig`).
        cluster: simulated cluster to run on; a default one with
            ``config.n_machines`` workers is created when omitted.
    """

    def __init__(
        self,
        dim: int,
        config: HarmonyConfig | None = None,
        cluster: Cluster | None = None,
    ) -> None:
        self.config = config or HarmonyConfig()
        if cluster is None:
            cluster = Cluster(n_workers=self.config.n_machines)
        if cluster.n_workers < self.config.n_machines:
            raise ValueError(
                f"config wants {self.config.n_machines} machines but the "
                f"cluster has {cluster.n_workers} workers"
            )
        self.cluster = cluster
        self.index = IVFFlatIndex(
            dim=dim,
            nlist=self.config.nlist,
            metric=self.config.metric,
            seed=self.config.seed,
        )
        self._decision: PlanDecision | None = None
        self._backend = None  # the one executor, see _executor()
        self._replica_directory = None
        self._host_faults = None
        # Serializes lazy backend construction and teardown: concurrent
        # first searches used to race the spawn (two pools, one
        # leaked). The search path itself stays lock-free.
        self._backend_lock = threading.Lock()
        self._tracer = None
        self._metrics = None
        self._result_cache = None
        if self.config.enable_cache:
            from repro.cache import ResultCache

            self._result_cache = ResultCache(max_entries=self.config.cache_size)

    @classmethod
    def from_trained_index(
        cls,
        index: "IVFFlatIndex",
        config: HarmonyConfig | None = None,
        cluster: Cluster | None = None,
        sample_queries: np.ndarray | None = None,
        k: int = 10,
    ) -> "HarmonyDB":
        """Deploy an already trained+populated IVF index.

        All HARMONY variants in the paper's evaluation share one
        clustering (Section 6.1); this constructor lets callers build
        that index once and attach it to several deployments without
        re-running k-means. Planning and data placement run
        immediately, so the returned DB is ready to search.

        Raises:
            RuntimeError: if the index is untrained or empty.
            ValueError: if the config disagrees with the index's
                nlist or metric.
        """
        if not index.is_trained or index.ntotal == 0:
            raise RuntimeError("index must be trained and populated")
        config = config or HarmonyConfig(nlist=index.nlist, metric=index.metric)
        if config.nlist != index.nlist:
            raise ValueError(
                f"config nlist {config.nlist} != index nlist {index.nlist}"
            )
        if config.metric is not index.metric:
            raise ValueError(
                f"config metric {config.metric} != index metric {index.metric}"
            )
        db = cls(dim=index.dim, config=config, cluster=cluster)
        db.index = index
        db._plan_and_place(sample_queries, k)
        return db

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @property
    def is_built(self) -> bool:
        return self._decision is not None

    @property
    def ntotal(self) -> int:
        return self.index.ntotal

    @property
    def plan(self) -> PartitionPlan:
        """The active partition plan."""
        return self.plan_decision.plan

    @property
    def result_cache(self):
        """The attached :class:`repro.cache.ResultCache`, or None.

        Built when the deployment was configured with
        ``enable_cache=True``; inspect ``result_cache.stats()`` for
        live hit/miss/invalidation counters.
        """
        return self._result_cache

    @property
    def plan_decision(self) -> PlanDecision:
        """The full planning outcome, including rejected grid shapes."""
        if self._decision is None:
            raise RuntimeError("build() has not been called")
        return self._decision

    def build(
        self,
        base: np.ndarray,
        sample_queries: np.ndarray | None = None,
        k: int = 10,
    ) -> BuildReport:
        """Train, populate, plan, and distribute the index.

        Args:
            base: ``(n, dim)`` base vectors.
            sample_queries: workload sample for the cost model; when
                omitted the planner assumes uniform probe frequencies.
            k: top-K size assumed when pricing result messages.

        Returns:
            A :class:`BuildReport` with simulated Train / Add /
            Pre-assign stage times (paper Figure 10).
        """
        base = np.atleast_2d(np.asarray(base, dtype=np.float32))
        self.index.train(base)
        self.index.add(base)
        stats = self.index.build_stats()
        client_rate = self.cluster.client.compute_rate
        train_seconds = stats.train_elements / client_rate
        add_seconds = stats.add_elements / client_rate

        self._plan_and_place(sample_queries, k)
        placement = placement_report(
            self.index, self.plan, self.config, self.cluster.network
        )
        return BuildReport(
            train_seconds=train_seconds,
            add_seconds=add_seconds,
            preassign_seconds=placement.preassign_seconds,
            placement=placement,
        )

    def add(self, vectors: np.ndarray) -> int:
        """Insert vectors into a built deployment (streaming ingest).

        New vectors join their nearest centroid's inverted list under
        the existing clustering and partition plan; the executor's
        kernel absorbs them as delta rows on its next search.
        Subsequent searches see the new vectors immediately and remain
        exact w.r.t. a single-node scan.

        Returns:
            Number of vectors added.
        """
        if not self.is_built:
            raise RuntimeError("build() must be called before add()")
        before = self.index.ntotal
        self.index.add(vectors)
        if self._result_cache is not None:
            self._result_cache.invalidate()
        return self.index.ntotal - before

    def remove(self, ids: np.ndarray) -> int:
        """Delete vectors by id (tombstoned, never returned again).

        Returns:
            Number of vectors newly deleted.
        """
        if not self.is_built:
            raise RuntimeError("build() must be called before remove()")
        removed = self.index.remove_ids(ids)
        if removed and self._result_cache is not None:
            self._result_cache.invalidate()
        return removed

    def compact(self) -> dict:
        """Merge pending delta segments and tombstones into a fresh
        base-generation layout now, instead of waiting for the
        ``delta_compact_ratio`` trigger.

        Searches are byte-identical before and after; compaction only
        restores packed-layout density after heavy mutation churn (and,
        on the process backend, re-homes the shared segment once on the
        next search). Returns a stats dict with ``compacted``,
        ``generation``, ``delta_rows_merged`` and
        ``tombstones_cleared``; a no-op (nothing pending) reports
        ``compacted: False``.
        """
        if not self.is_built:
            raise RuntimeError("build() must be called before compact()")
        stats = self._executor().kernel.compact()
        if stats.get("compacted") and self._result_cache is not None:
            # Compaction opens a new layout generation; cached entries
            # must never be served across it.
            self._result_cache.invalidate()
        return stats

    def replan(
        self, sample_queries: np.ndarray, k: int = 10
    ) -> PlanDecision:
        """Re-run the planner for a new workload and redistribute.

        This is HARMONY's adaptation path: when the observed workload
        shifts (e.g. becomes skewed), the cost model may select a
        different grid; blocks are re-placed accordingly.
        """
        if not self.is_built:
            raise RuntimeError("build() has not been called")
        self._plan_and_place(sample_queries, k)
        return self.plan_decision

    def _plan_and_place(
        self, sample_queries: np.ndarray | None, k: int
    ) -> None:
        config = self.config
        params = CostParameters.from_cluster(self.cluster, alpha=config.alpha)
        planner = QueryPlanner(self.index, params, k=k)

        # Every strategy calibrates its partition against a *typical*
        # workload (a sample of the base distribution), as deployed
        # systems do. Only HARMONY additionally adapts to the observed
        # query sample — that adaptivity is the paper's contribution;
        # the vector/dimension baselines stay static (Section 6.1).
        adapt = config.mode is Mode.HARMONY and sample_queries is not None
        if adapt:
            sample = np.atleast_2d(np.asarray(sample_queries, dtype=np.float32))
            if sample.shape[0] > PLAN_SAMPLE:
                rng = np.random.default_rng(config.seed)
                picks = rng.choice(
                    sample.shape[0], size=PLAN_SAMPLE, replace=False
                )
                sample = sample[picks]
        else:
            rng = np.random.default_rng(config.seed)
            picks = rng.choice(
                self.index.ntotal,
                size=min(PLAN_SAMPLE, self.index.ntotal),
                replace=False,
            )
            sample = self.index.base[picks]
        profile: WorkloadProfile | None = planner.profile(
            sample, config.nprobe
        )
        self._decision = planner.choose(
            n_machines=config.n_machines,
            mode=config.mode,
            profile=profile,
            load_aware=config.enable_load_balance,
            balanced=config.enable_load_balance,
            pruning=config.enable_pruning,
            forced_grid=config.forced_grid,
            replicas=config.replicas,
        )
        # A new plan: the executor and the replica directory built for
        # the old one go with it.
        self._replica_directory = None
        self.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def search(
        self,
        queries: np.ndarray,
        k: int = 10,
        nprobe: int | None = None,
        arrival_times: np.ndarray | None = None,
    ) -> tuple[SearchResult, ExecutionReport]:
        """Distributed top-K search for a batch of queries.

        Returns the exact same result sets a single-node IVF scan with
        identical nlist/nprobe would produce, plus the simulated
        performance report of the distributed execution.

        Pass ``arrival_times`` (ascending simulated timestamps, one per
        query) for open-loop load experiments: latencies then include
        queueing delay behind earlier queries.

        The execution substrate follows ``config.backend``: under
        ``"sim"`` (default) the report carries simulated cluster
        timings; under ``"process"`` / ``"serial"`` the batch runs on
        the host and the report's
        ``simulated_seconds`` is measured host wall-clock instead.

        Raises:
            ValueError: when the queries are not one vector or a 2-D
                batch, or a row has the wrong dimension or a
                non-finite component, or ``k`` is not a positive
                integer.
        """
        if not self.is_built:
            raise RuntimeError("build() must be called before search()")
        check_vectors(queries, self.index.dim)
        k = check_k(k)
        if self._tracer is not None:
            # One trace per batch (the simulator's reset_time does the
            # same for an engine driven directly).
            self._tracer.clear()
        if self._result_cache is not None and arrival_times is None:
            return self._cached_search(queries, k=k, nprobe=nprobe)
        return self._uncached_search(queries, k, nprobe, arrival_times)

    def _uncached_search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int | None,
        arrival_times: np.ndarray | None = None,
    ) -> tuple[SearchResult, ExecutionReport]:
        """The configured backend's search, bypassing the result cache."""
        return self._executor().run(
            queries,
            k,
            nprobe if nprobe is not None else self.config.nprobe,
            arrival_times=arrival_times,
        )

    def _cache_generation(self) -> tuple:
        """The ``(index uid, index version, layout generation)`` tuple
        current cache entries must match. Mutations move the version,
        compactions (and full rebuilds) move the layout generation, and
        a whole new index object moves the uid — any of the three
        invalidates the cache."""
        layout = self._executor().kernel.layout_stats()
        return (
            self.index.uid, self.index.version, layout["layout_generation"]
        )

    def cache_probe(
        self, query: np.ndarray, k: int, nprobe: int | None = None
    ):
        """Advisory single-query result-cache probe (serve fast path).

        Returns a :class:`repro.cache.CacheHit` when the prepared query
        can be answered from the cache right now, else None. Misses are
        *not* counted — the authoritative lookup happens when the query
        flows through :meth:`search`. Returns None when caching is
        disabled.
        """
        cache = self._result_cache
        if cache is None or not self.is_built:
            return None
        prepared = self._executor().kernel.prepare_queries(query)
        if prepared.shape[0] != 1:
            raise ValueError(
                f"cache_probe takes a single query, got "
                f"{prepared.shape[0]}"
            )
        nprobe = nprobe if nprobe is not None else self.config.nprobe
        return cache.lookup(
            prepared[0],
            k,
            nprobe,
            self.config.metric.value,
            self._cache_generation(),
            record_miss=False,
        )

    def _cached_search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int | None,
    ) -> tuple[SearchResult, ExecutionReport]:
        """Search through the result cache: serve hit rows from cached
        answers, dispatch only the miss rows to the backend, and cache
        fresh non-degraded answers for next time.

        Hits are byte-identical by construction: the key includes the
        prepared query bytes and every answer-shaping parameter.
        """
        from repro.cache.result_cache import CACHE_LANE

        cache = self._result_cache
        assert cache is not None
        nprobe = nprobe if nprobe is not None else self.config.nprobe
        prepared = self._executor().kernel.prepare_queries(queries)
        nq = prepared.shape[0]
        if nq == 0:
            return self._uncached_search(queries, k, nprobe)
        metric = self.config.metric.value
        stats_before = vars(cache.stats())
        generation = self._cache_generation()
        lookup_start = time.perf_counter()
        hits = [
            cache.lookup(prepared[i], k, nprobe, metric, generation)
            for i in range(nq)
        ]
        lookup_end = time.perf_counter()
        miss_rows = [i for i, hit in enumerate(hits) if hit is None]
        if self._tracer is not None:
            # A wall-clock span: it stays in a host backend's trace of
            # the sub-batch below, and goes when the simulator resets
            # the trace to simulated time zero.
            self._tracer.record(
                "cache-lookup", "other", CACHE_LANE,
                lookup_start, lookup_end,
                batch=nq, hits=nq - len(miss_rows),
            )

        if not miss_rows:
            # Whole batch served from cache: no routing, no scan.
            elapsed = lookup_end - lookup_start
            report = ExecutionReport.host_timed(
                nq, k, nprobe, self.plan, "result cache",
                TimeBreakdown(other=elapsed),
                trace=(
                    self._tracer.trace() if self._tracer is not None else None
                ),
            )
            stamp_from(
                report, "result_cache", stats_before, vars(cache.stats())
            )
            result = SearchResult(
                distances=np.stack([hit.distances for hit in hits]),
                ids=np.stack([hit.ids for hit in hits]),
            )
            return result, report

        # Dispatch the misses as one sub-batch through the configured
        # backend. Raw (unprepared) rows go in so the backend prepares
        # them exactly as an uncached batch would — per-query results
        # are independent of batch composition, so the merged batch is
        # byte-identical to an uncached run.
        raw = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        sub = np.ascontiguousarray(raw[miss_rows])
        sub_result, report = self._uncached_search(sub, k, nprobe)

        # Only cache answers that are (a) fully covered — degraded
        # partial results are wrong to replay once the cluster heals —
        # and (b) still current: a concurrent mutation between lookup
        # and completion moves uid/version, making these answers stale
        # before they land.
        post_generation = self._cache_generation()
        if post_generation[:2] == generation[:2]:
            coverage = (
                report.degraded.coverage
                if report.degraded is not None
                else None
            )
            for j, row in enumerate(miss_rows):
                if coverage is not None and coverage[j] < 1.0:
                    continue
                cache.insert(
                    prepared[row], k, nprobe, metric, post_generation,
                    sub_result.ids[j], sub_result.distances[j],
                )

        stamp_from(report, "result_cache", stats_before, vars(cache.stats()))
        if len(miss_rows) == nq:
            return sub_result, report

        ids = np.empty((nq,) + sub_result.ids.shape[1:],
                       dtype=sub_result.ids.dtype)
        distances = np.empty(
            (nq,) + sub_result.distances.shape[1:],
            dtype=sub_result.distances.dtype,
        )
        for j, row in enumerate(miss_rows):
            ids[row] = sub_result.ids[j]
            distances[row] = sub_result.distances[j]
        for i, hit in enumerate(hits):
            if hit is not None:
                ids[i] = hit.ids
                distances[i] = hit.distances
        report.n_queries = nq
        return SearchResult(distances=distances, ids=ids), report

    def _executor(self):
        """The backend ``config.backend`` names, built lazily for the
        active plan; ``.kernel`` is the scan kernel in use.

        Built when the plan changes, never when the data changes: it
        outlives mutations (its kernel absorbs them as delta rows /
        tombstone bits) and is dropped only by a new plan or
        :meth:`close`. ``_backend_lock`` serializes construction so
        concurrent first callers share one backend.
        """
        backend = self._backend
        if backend is not None:
            return backend
        with self._backend_lock:
            backend = self._backend
            if backend is None:
                from repro.core.executor import resolve_backend

                backend = resolve_backend(self.config.backend).deploy(
                    self.index, self.plan, self.cluster, self.config
                )
                backend.tracer = self._tracer
                backend.chaos = self._host_faults
                backend.replica_directory = self._replica_directory
                self._backend = backend
        return backend

    # The perf ledger (benchmarks/ledger, frozen) reads the built
    # executor under this name, without building one.
    _host_backend = property(lambda self: self._backend)

    def close(self) -> None:
        """Release the executor (worker pools, shared memory, the
        simulated cluster's placed blocks).

        Idempotent; the database remains usable — the next search
        lazily rebuilds it.
        """
        with self._backend_lock:
            backend, self._backend = self._backend, None
        if backend is not None:
            backend.close()

    def __enter__(self) -> "HarmonyDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def set_host_faults(self, injector) -> None:
        """Attach a :class:`repro.cluster.HostFaultInjector` (or None).

        Arms deterministic chaos (worker kills, scan delays, shm
        drops) on the process pool, which consults the injector at task
        boundaries. The serial loop acts out scan delays only: a search
        is its one task. Applies to the current backend and to any
        backend built later. Pass ``None`` to disarm.

        Raises ``ValueError`` on ``sim`` (the simulator's faults are
        ``Cluster.fail_worker``), and on ``serial`` for an injector
        carrying kills or shm drops: it has no worker to kill and no
        shared segment to drop.
        """
        if self.config.backend == "sim":
            raise ValueError(
                "host fault injection applies to the host backends; the "
                "'sim' backend fails machines via cluster.fail_worker"
            )
        if (
            self.config.backend == "serial"
            and injector is not None
            and (injector.kills or injector.shm_drops)
        ):
            raise ValueError(
                "host fault injection on the serial loop acts out "
                "DelayScan only: it has no worker to kill and no shared "
                "segment to drop"
            )
        self._host_faults = injector
        with self._backend_lock:
            backend = self._backend
        if backend is not None:
            backend.chaos = injector

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def serve(self, **overrides):
        """Start a :class:`repro.serve.HarmonyServer` over this DB.

        Keyword arguments (``max_batch=``, ``slo_ms=``,
        ``queue_depth=``, ``shed_policy=``) set the server's coalescing
        / SLO / admission knobs; it publishes to :attr:`metrics`. The
        returned server is already started; use it as a context
        manager or call ``close()`` to drain and stop.
        """
        if not self.is_built:
            raise RuntimeError("build() must be called before serve()")
        from repro.serve.server import HarmonyServer

        return HarmonyServer(self, **overrides)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def tracer(self):
        """The attached :class:`repro.obs.Tracer`, or None."""
        return self._tracer

    @property
    def metrics(self):
        """The attached :class:`repro.obs.MetricsRegistry`, or None."""
        return self._metrics

    def enable_tracing(self):
        """Attach a span tracer; subsequent searches carry a trace.

        Under the ``"sim"`` backend the trace holds per-query spans
        over simulated time, one lane per cluster node; under host
        backends it holds wall-clock spans, one lane per caller thread
        and one per pool worker. Either way ``ExecutionReport.trace``
        is populated and exportable as Chrome ``trace_event`` JSON.
        Returns the tracer.
        """
        from repro.obs.trace import Tracer

        self._tracer = Tracer()
        self.cluster.tracer = self._tracer
        if self._backend is not None:
            self._backend.tracer = self._tracer
        return self._tracer

    def disable_tracing(self) -> None:
        """Detach the tracer; the hot path returns to untraced cost."""
        self._tracer = None
        self.cluster.tracer = None
        if self._backend is not None:
            self._backend.tracer = None

    def attach_metrics(self, registry=None):
        """Attach (or create) a live metrics registry; returns it.

        The cluster publishes low-level series (compute calls, queue
        waits, transferred bytes) as work is charged; pair with
        :func:`repro.obs.report_metrics` to also publish a finished
        report's aggregates.
        """
        from repro.obs.metrics import MetricsRegistry

        self._metrics = registry if registry is not None else MetricsRegistry()
        self.cluster.metrics = self._metrics
        return self._metrics

    def detach_metrics(self) -> None:
        self._metrics = None
        self.cluster.metrics = None

    # ------------------------------------------------------------------
    # Faults and recovery
    # ------------------------------------------------------------------

    def enable_fault_recovery(self):
        """Track live replicas and return a :class:`RecoveryManager`.

        The :class:`~repro.cluster.recovery.ReplicaDirectory` is the
        deployment's: until the plan changes, every search on any
        backend routes by it instead of the plan's static placement.
        The returned manager's ``fail(node, now)`` / ``restore(node,
        now)`` drive simulated re-replication and rebalancing.
        """
        if not self.is_built:
            raise RuntimeError(
                "build() must be called before enable_fault_recovery()"
            )
        from repro.cluster.recovery import RecoveryManager, ReplicaDirectory

        directory = ReplicaDirectory(self.plan, self.index)
        self._replica_directory = directory
        if self._backend is not None:
            self._backend.replica_directory = directory
        return RecoveryManager(
            cluster=self.cluster,
            plan=self.plan,
            index=self.index,
            directory=directory,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: "str | object") -> None:
        """Serialize the deployment (index + config + plan) to ``.npz``.

        :meth:`load` reconstructs a ready-to-search deployment on a
        fresh simulated cluster that returns identical results.
        """
        if not self.is_built:
            raise RuntimeError("build() must be called before save()")
        plan = self.plan
        config_json = json.dumps(
            {
                name: getattr(value, "value", value)  # enums by value
                for name, value in dataclasses.asdict(self.config).items()
            }
        )
        arrays = dict(
            self.index.state_arrays(),
            config=np.array(config_json),
            shard_of_list=plan.shard_of_list,
            placement=plan.placement,
            slice_boundaries=np.array(plan.slices.boundaries, dtype=np.int64),
        )
        if plan.replica_placement is not None:
            # Only a replicated plan stores the array.
            arrays["replica_placement"] = plan.replica_placement
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(
        cls, path: "str | object", cluster: Cluster | None = None
    ) -> "HarmonyDB":
        """Reconstruct a deployment saved with :meth:`save`.

        Config keys the file lacks (it was written before the knob
        existed) take their defaults; keys of knobs retired since
        (``_RETIRED_CONFIG_FIELDS``) are dropped.
        """
        from repro.distance.partial import DimensionSlices

        with np.load(saved_path(path), allow_pickle=False) as data:
            arrays = dict(data)
        saved = json.loads(str(arrays["config"]))
        for name in _RETIRED_CONFIG_FIELDS:
            saved.pop(name, None)
        config = HarmonyConfig(**saved)
        db = cls(
            dim=int(arrays["base"].shape[1]), config=config, cluster=cluster
        )
        index = db.index
        index.restore_state(arrays)
        placement = arrays["placement"]

        plan = PartitionPlan(
            n_machines=config.n_machines,
            n_vector_shards=int(placement.shape[0]),
            n_dim_blocks=int(placement.shape[1]),
            slices=DimensionSlices(
                tuple(int(b) for b in arrays["slice_boundaries"])
            ),
            shard_of_list=arrays["shard_of_list"],
            placement=placement,
            replica_placement=arrays.get("replica_placement"),
        )
        # Re-score the saved plan so plan_decision stays meaningful.
        params = CostParameters.from_cluster(db.cluster, alpha=config.alpha)
        planner = QueryPlanner(index, params)
        profile = planner.profile(
            index.base[: min(64, index.ntotal)], config.nprobe
        )
        from repro.core.cost_model import plan_cost

        cost = plan_cost(plan, index, profile, params)
        db._decision = PlanDecision(
            plan=plan,
            cost=cost,
            evaluated=(
                ((plan.n_vector_shards, plan.n_dim_blocks), cost),
            ),
        )
        return db

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def index_memory_report(self) -> dict[str, object]:
        """Per-machine index memory vs the single-node equivalent.

        Substrate for the paper's Table 4: ``per_machine`` maps worker
        id to resident index bytes under the active plan;
        ``single_node_total`` is what one Faiss-style node would hold.
        """
        placement = placement_report(
            self.index, self.plan, self.config, self.cluster.network
        )
        single = self.index.memory_report()
        return {
            "per_machine": placement.per_machine_bytes,
            "max_machine_bytes": placement.max_machine_bytes,
            "mean_machine_bytes": placement.mean_machine_bytes,
            "total_bytes": placement.total_bytes,
            "single_node_total": single["total"],
            "plan": self.plan.describe(),
        }

    def mode(self) -> Mode:
        return self.config.mode
