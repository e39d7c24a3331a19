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
        ("n_machines", "nlist", "nprobe", "delta_compact_ratio",
         "cache_size"),
        lambda v: v > 0, "positive", False,
    ),
    (("n_workers",), lambda v: v > 0, "positive", True),
    (("alpha", "prewarm_size"), lambda v: v >= 0, "non-negative", False),
)

#: ``(field, choices, noun)``: knobs that name one of a fixed set;
#: stored lower-cased.
_CHOICE_RULES = (
    ("backend", ("sim", "serial", "process"), "backends"),
    ("scan_precision", ("fp32", "sq8"), "precisions"),
)

#: Switches coerced to ``bool``.
_FLAGS = ("batch_queries", "degraded_mode", "auto_compact", "enable_cache")

#: Knobs a :class:`~repro.core.executor.kernel.ScanKernel` takes, under
#: the kernel's own keyword names.
_KERNEL_KNOBS = (
    "prewarm_size", "enable_pruning", "scan_precision",
    "delta_compact_ratio", "auto_compact",
)

#: Knobs every host backend takes beside the kernel's, and the pool-size
#: knob of the one that has a pool.
_HOST_KNOBS = ("batch_queries", "degraded_mode")
_POOL_KNOB = {"process": ("n_workers",)}


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
        seed: RNG seed for clustering and sampling.
        backend: execution backend for ``HarmonyDB.search``: ``"sim"``
            (discrete-event simulated cluster, the default),
            ``"process"`` (persistent worker processes over
            shared-memory shard layouts — multi-core without the GIL),
            or ``"serial"`` (plain loop on the caller's thread, the
            reference oracle; host wall-clock timing). All backends
            return byte-identical results; only the timing side
            differs. The retired spelling ``"thread"`` is stored as
            ``"serial"``.
        n_threads: accepted for configs written for the retired thread
            pool, and ignored: it is neither stored nor saved.
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
    seed: int = 0
    forced_grid: "tuple[int, int] | None" = None
    replicas: int = 1
    backend: str = "sim"
    n_threads: dataclasses.InitVar["int | None"] = None
    n_workers: "int | None" = None
    batch_queries: bool = True
    degraded_mode: bool = False
    scan_precision: str = "fp32"
    delta_compact_ratio: float = 0.25
    auto_compact: bool = True
    enable_cache: bool = False
    cache_size: int = 1024

    def __post_init__(self, n_threads: "int | None") -> None:
        del n_threads  # the retired thread pool's size: ignored
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
        if str(self.backend).lower() == "thread":
            # The retired thread pool never beat the serial loop; its
            # spelling (still in saved files and the perf ledger) runs it.
            self.backend = "serial"
        for name, choices, noun in _CHOICE_RULES:
            value = str(getattr(self, name)).lower()
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
