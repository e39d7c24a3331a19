"""HARMONY configuration.

Mirrors the user-facing parameters of the paper's implementation
(Section 5): ``-NMachine``, ``-Pruning_Configuration``,
``-Indexing_Parameters`` (nlist / nprobe / dim), ``-alpha`` and
``-Mode``, plus the ablation switches used in Section 6.3.2.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from repro.distance.metrics import Metric, resolve_metric


#: Admission-control load-shedding policies accepted by
#: ``HarmonyConfig.serve_shed_policy`` (hyphens normalize to
#: underscores, so the paper-issue spelling ``degrade-nprobe`` works).
SHED_POLICIES = ("reject", "shed_oldest", "degrade_nprobe")


class Mode(str, enum.Enum):
    """Partitioning mode (the paper's ``-Mode`` parameter).

    ``HARMONY`` lets the cost model pick the hybrid grid;
    ``VECTOR`` forces pure vector-based partitioning (Harmony-vector);
    ``DIMENSION`` forces pure dimension-based partitioning
    (Harmony-dimension).
    """

    HARMONY = "harmony"
    VECTOR = "harmony-vector"
    DIMENSION = "harmony-dimension"


def resolve_mode(mode: "Mode | str") -> Mode:
    """Coerce a mode name (``"harmony-vector"`` etc.) into :class:`Mode`."""
    if isinstance(mode, Mode):
        return mode
    try:
        return Mode(str(mode).lower())
    except ValueError as exc:
        supported = ", ".join(m.value for m in Mode)
        raise ValueError(
            f"unknown mode {mode!r}; supported modes: {supported}"
        ) from exc


#: ``(fields, predicate, requirement, None allowed)``: the range every
#: numeric knob must lie in, and the words the error names it with.
_RANGE_RULES = (
    (
        ("n_machines", "nlist", "nprobe", "plan_sample",
         "delta_compact_ratio", "serve_max_batch", "serve_slo_ms",
         "serve_queue_depth", "cache_size", "routing_cache_size"),
        lambda v: v > 0, "positive", False,
    ),
    (("n_threads", "n_workers"), lambda v: v > 0, "positive", True),
    (("memory_bandwidth",), lambda v: v > 0, "positive or None", True),
    (("alpha", "prewarm_size"), lambda v: v >= 0, "non-negative", False),
)

#: ``(field, choices, noun, hyphens normalize to underscores)``: knobs
#: that name one of a fixed set; stored lower-cased.
_CHOICE_RULES = (
    ("backend", ("sim", "thread", "serial", "process"), "backends", False),
    ("scan_precision", ("fp32", "sq8"), "precisions", False),
    ("serve_shed_policy", SHED_POLICIES, "policies", True),
)

#: Switches coerced to ``bool``.
_FLAGS = ("batch_queries", "degraded_mode", "auto_compact", "enable_cache")

#: Knobs a :class:`~repro.core.executor.kernel.ScanKernel` takes, under
#: the kernel's own keyword names.
_KERNEL_KNOBS = (
    "prewarm_size", "enable_pruning", "scan_precision",
    "delta_compact_ratio", "auto_compact", "routing_cache_size",
)

#: Knobs every host backend takes beside the kernel's, and the pool-size
#: knob of the two that have a pool.
_HOST_KNOBS = ("batch_queries", "degraded_mode")
_POOL_KNOB = {"thread": ("n_threads",), "process": ("n_workers",)}


@dataclass
class HarmonyConfig:
    """All tunables of a HARMONY deployment.

    Attributes:
        n_machines: worker nodes in the cluster (``-NMachine``).
        nlist: IVF cluster count.
        nprobe: probed clusters per query.
        metric: similarity metric.
        mode: partition-mode selection (see :class:`Mode`).
        alpha: weight of the imbalance term in the overall cost
            function ``C(pi, Q) = sum C_q + alpha * I(pi)``.
        enable_pruning: dimension-level early-stop pruning (Section 4.3).
        enable_pipeline: pipelined inter-slice execution; when off,
            partial results synchronize through the client with barrier
            semantics (the paper's non-pipelined strawman).
        enable_load_balance: load-aware list-to-shard assignment plus
            adaptive dimension-order scheduling.
        prewarm_size: candidates scored on the client to seed the top-K
            heap before distributed scanning (Algorithm 1, PrewarmHeap).
        forced_grid: pin the partition grid to ``(B_vec, B_dim)``
            instead of letting the cost model choose (used by ablation
            experiments to isolate one optimization at a time).
        replicas: copies of every grid block (1 = none). Replication is
            the classic alternative remedy for hot shards — it buys
            read scaling at ``replicas``x the per-node index memory,
            the trade-off ``bench_replication_tradeoff.py`` quantifies
            against Harmony's memory-free hybrid grids.
        plan_sample: query-sample size fed to the cost model.
        kmeans_iterations: training iteration cap.
        seed: RNG seed for clustering and sampling.
        backend: execution backend for ``HarmonyDB.search``: ``"sim"``
            (discrete-event simulated cluster, the default), ``"thread"``
            (real host threads, wall-clock timing), ``"process"``
            (persistent worker processes over shared-memory shard
            layouts — multi-core without the GIL), or ``"serial"``
            (plain loop, the reference oracle). All backends return
            byte-identical results; only the timing side differs.
        n_threads: worker threads for the ``"thread"`` backend
            (None = executor default).
        n_workers: worker processes for the ``"process"`` backend
            (None = one per CPU core).
        batch_queries: on the host backends, fuse multi-query batches
            into shard-major matrix-matrix scans (bitwise identical to
            the per-query loop, just faster). False forces one scan
            per query; the simulated backend always steps per query.
        degraded_mode: serve partial results instead of raising when a
            grid block has no live replica — skipped work is reported
            as a per-query coverage fraction and recall-vs-healthy
            delta in ``ExecutionReport.degraded``. Off by default:
            losing data silently is the wrong default for a database.
        scan_precision: candidate-generation representation. ``"fp32"``
            (the default) scans full-precision rows; ``"sq8"`` scans
            packed uint8 codes with error-padded lossless pruning
            bounds and re-ranks survivors against float32, returning
            byte-identical results for a quarter of the scan
            bandwidth. Honoured by every backend.
        delta_compact_ratio: write-path compaction trigger. Mutations
            are absorbed as per-shard delta segments and tombstone
            bits on the immutable packed base; once the pending rows
            (deltas + tombstones) exceed this fraction of the base
            generation, the next search merges them into a fresh
            generation. Results are byte-identical either way.
        auto_compact: disable to never compact automatically; deltas
            then accumulate until :meth:`HarmonyDB.compact` is called.
        memory_bandwidth: simulated per-node memory bandwidth cap in
            bytes/second shared by that node's concurrent scans
            (``"sim"`` backend only). ``None`` (the default) models
            compute-bound nodes, leaving existing timings untouched;
            a finite cap reproduces the bandwidth-contention "more
            cores hurts" regime that motivates the sq8 path.
        serve_max_batch: largest micro-batch the serving front end
            (:class:`repro.serve.HarmonyServer`) dispatches at once;
            whatever arrived beyond it rides the next batch.
        serve_slo_ms: end-to-end latency SLO target in milliseconds.
            Responses slower than it count as ``slo_violations``. It
            delays and cuts short nothing: the server dispatches pending
            requests the moment it is free, so batch size follows the
            load, and a caller that wants a bound on its own wait uses
            ``future.result(timeout=)``.
        serve_queue_depth: admitted-request bound. When the pending
            queue reaches it, the shed policy applies — queueing
            theory's alternative is unbounded queue growth and
            unbounded p99.
        serve_shed_policy: what to do with load beyond
            ``serve_queue_depth``: ``"reject"`` refuses the new
            request, ``"shed_oldest"`` drops the stalest queued
            request in favor of the new one, ``"degrade_nprobe"``
            admits up to ``2 * serve_queue_depth`` but serves
            overload-admitted requests at half the requested nprobe
            (flagged on the response, like degraded mode), shedding
            the oldest beyond the hard cap.
        enable_cache: attach a :class:`repro.cache.ResultCache` to the
            deployment. Exact hits replay finished answers
            byte-identically and skip routing + scanning entirely;
            entries are invalidated whenever the index version or
            packed-layout generation moves, and degraded /
            partial-coverage answers are never cached. Off by default —
            caching is a serving-workload decision.
        cache_size: result-cache capacity in entries (segmented LRU:
            repeat-hit entries are protected from one-hit-wonder
            floods).
        routing_cache_size: capacity of the kernel's planner-level
            :class:`~repro.core.routing.RoutingCache` (LRU entries per
            internal map); hot probe rows skip shard routing and
            candidate-list splitting.
    """

    n_machines: int = 4
    nlist: int = 64
    nprobe: int = 8
    metric: Metric = Metric.L2
    mode: Mode = Mode.HARMONY
    alpha: float = 4.0
    enable_pruning: bool = True
    enable_pipeline: bool = True
    enable_load_balance: bool = True
    prewarm_size: int = 32
    plan_sample: int = 128
    kmeans_iterations: int = 20
    seed: int = 0
    forced_grid: "tuple[int, int] | None" = None
    replicas: int = 1
    backend: str = "sim"
    n_threads: "int | None" = None
    n_workers: "int | None" = None
    batch_queries: bool = True
    degraded_mode: bool = False
    scan_precision: str = "fp32"
    delta_compact_ratio: float = 0.25
    auto_compact: bool = True
    memory_bandwidth: "float | None" = None
    serve_max_batch: int = 32
    serve_slo_ms: float = 20.0
    serve_queue_depth: int = 256
    serve_shed_policy: str = "reject"
    enable_cache: bool = False
    cache_size: int = 1024
    routing_cache_size: int = 4096

    def __post_init__(self) -> None:
        self.metric = resolve_metric(self.metric)
        self.mode = resolve_mode(self.mode)
        for names, holds, requirement, nullable in _RANGE_RULES:
            for name in names:
                value = getattr(self, name)
                if value is None and nullable:
                    continue
                if not holds(value):
                    raise ValueError(
                        f"{name} must be {requirement}, got {value}"
                    )
        if self.forced_grid is not None:
            b_vec, b_dim = self.forced_grid
            if b_vec <= 0 or b_dim <= 0:
                raise ValueError(
                    f"forced_grid entries must be positive, got "
                    f"{self.forced_grid}"
                )
            self.forced_grid = (b_vec, b_dim)  # a saved file holds a list
        if not 1 <= self.replicas <= self.n_machines:
            raise ValueError(
                f"replicas must be in [1, n_machines], got {self.replicas}"
            )
        for name, choices, noun, hyphens in _CHOICE_RULES:
            value = str(getattr(self, name)).lower()
            if hyphens:
                value = value.replace("-", "_")
            if value not in choices:
                raise ValueError(
                    f"unknown {name} {value!r}; supported {noun}: "
                    f"{', '.join(sorted(choices))}"
                )
            setattr(self, name, value)
        for name in _FLAGS:
            setattr(self, name, bool(getattr(self, name)))

    def kernel_options(self) -> dict:
        """The config → :class:`ScanKernel` mapping, written once.

        Every executor's kernel — the sim engine's and each host
        backend's — is built from these keywords.
        """
        return {name: getattr(self, name) for name in _KERNEL_KNOBS}

    def host_options(self) -> dict:
        """Constructor keywords of the configured host backend:
        :meth:`kernel_options` plus the backend's own knobs (a pool's
        size goes under that pool's own name)."""
        names = _KERNEL_KNOBS + _HOST_KNOBS + _POOL_KNOB.get(self.backend, ())
        return {name: getattr(self, name) for name in names}

    def replace(self, **changes: object) -> "HarmonyConfig":
        """Copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]
