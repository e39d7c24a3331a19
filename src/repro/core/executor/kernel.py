"""The HARMONY scan kernel: Algorithm 1 implemented exactly once.

Every execution backend — serial reference loop, worker-process
pool, discrete-event simulation — runs the same search
algorithm: prewarm the top-K heap from the nearest probed list, walk
each touched shard's candidates through the dimension pipeline with
lossless early-stop pruning, and merge the survivors into the heap.
:class:`ScanKernel` is that algorithm's single home, and the scan
itself is module-level functions every caller shares: :func:`open_scan`
(gathered candidates → the right scan object), :func:`drive_steps` (the
slice loop, a generator of stages: the host paths run it out through
:func:`drive_scan`, the simulator takes one stage a round, the
planner's survival pilot reads survival off it) and :func:`scan_group`
(chunking a shard-group and handing survivors back per query).

The kernel is deliberately *timing-free*: it gathers candidate indices
from a cached :class:`~repro.core.layout.ShardPackedBase`, scores
batches, steps :class:`~repro.core.pruning.ShardScan` objects slice by
slice, and maintains heaps. Backends decide *when* and *where* each
step runs (the caller's thread, pool workers, simulated machines) and
charge whatever cost
model they like around the kernel calls — which is what keeps results
byte-identical across backends by construction.

Two execution shapes share the kernel:

- :meth:`ScanKernel.search_one` — the per-query reference loop;
- :meth:`ScanKernel.search_batch` — the throughput path: queries are
  grouped by touched shard and every (shard, slice) stage advances the
  whole group at once (:class:`~repro.core.pruning.ShardGroupScan`) —
  dense vectorized bookkeeping and pruning across the group, each
  member's alive rows bounded with float32 BLAS under a proved rounding
  pad, and the survivors re-ranked with the per-query float64 kernel.
  The pad keeps pruning lossless and the re-rank returns the exact
  scan's bits, so its results are *bitwise identical* to the looped
  :meth:`search_one` — a property the equivalence tests pin.

A shard-group has two sources, chosen by one rule on its own shape
(:func:`_list_major`: its (member, list) pairs over its distinct
probed lists, against :data:`_LIST_SHARING`). Below the rule each
member's candidates are gathered on their own; above it the group is
read *list-major* — slice 0 scores each probed list once, with one
GEMM of its slab range, rows or codes, against every member probing
it, and only the survivors become the group's dense rows.

:meth:`ScanKernel.search` picks between the two, and takes the
per-query loop whenever pruning is off (bounds nothing reads are not
worth a fused pass); the serial loop runs
it over a whole batch, and every process-pool worker over its chunk of
one, on a kernel bound to the shared layout (:meth:`ScanKernel.
over_layout`).
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.heap import TopKHeap
from repro.core.layout import CandidatePart, ShardPackedBase
from repro.core.partition import PartitionPlan
from repro.core.pruning import (
    ShardGroupScan,
    ShardScan,
    SQ8ShardGroupScan,
    SQ8ShardScan,
)
from repro.core.results import SearchResult
from repro.core.routing import (
    RoutingCache,
    shard_candidate_lists,
    touched_shards,
)
from repro.distance.kernels import scores_to_query
from repro.distance.metrics import Metric, normalize_rows
from repro.distance.partial import query_slice_norms, slice_norms

#: Upper bound on 8-byte elements of per-row bookkeeping a fused group
#: chunk opens with (~8 MB). A chunk holds no candidate rows — they stay
#: in the layout's slabs. Member by member, what grows with its row
#: count is the group scan's dense arrays: per row ids, owner,
#: accumulated score, alive index and a stage's partial, the threshold
#: gather, bound, keep mask and kept index of a prune, and up to
#: ``2 * n_slices`` table columns (the IP suffix sums, and the scorer's
#: pad term: the fp32 IP cap or the SQ8 error norms) — ``8 + 2 *
#: n_slices`` elements, which :func:`scan_group` divides by. List by list
#: (the list-major first slice, :func:`_list_major`, either precision),
#: a chunk opens with one float64 slice-0 score per (member, row) pair
#: and no dense row at all, so it holds up to this many *pairs*; only
#: slice 0's survivors become dense rows — 38 % of the pairs on the
#: ledger's ``batch_fp32`` at seed 7, but every pair of a member whose
#: heap is not yet full (prewarm off, or seeding fewer than k rows),
#: which can reach ``8 + 2 * n_slices`` times the bound. The two stage
#: buffers are sized by the chunk's largest *member* (one member is
#: never split; list by list, also its largest list), not by this bound;
#: phase one and the re-rank walk the chunk's rows through them in
#: blocks of that size. Groups larger than it are processed in
#: sequential query-disjoint chunks so the batched path's working set
#: stays cache-and-RAM friendly at any batch size. Not a tuned value:
#: member by member, at four slices it gives 62 500 rows a chunk, and
#: 31k–250k rows a chunk time the same on ``batch_fp32``; list by list,
#: it keeps that workload's 256-query group (~690k pairs) one chunk —
#: cut in two, the list path's gain there fell from 1.57× to 1.33×
#: (in-process, alternating, 16 batches at seed 7).
GROUP_BLOCK_ELEMENTS = 1_000_000

#: S, the least sharing at which a shard-group is read list by list:
#: its (member, probed list) pairs over its distinct probed lists
#: (:func:`_list_major`). The list path pays a fixed cost per distinct
#: list — one GEMM, its pad, prune and merge — and saves per pair a
#: gather and slice 0's take and ``sgemv``. Swept on the ledger's
#: ``batch_fp32`` shape (20k x 128 on a 1 x 4 grid, nlist 128, nprobe
#: 16; in-process, the two paths alternating, up to 60 batches a size,
#: seeds 7 and 3), list path over member path by sharing: 2.7–2.8 (16
#: queries) 0.78–0.83x, 3.7 (24) 0.88–0.89x, 4.6–4.7 (32) 0.98–0.99x,
#: 5.5–5.6 (40) 1.02–1.06x, 6.4 (48) 1.05–1.10x, 8.3–8.4 (64) 1.16x,
#: 16 (128) 1.28–1.31x, 32 (256) 1.36–1.46x. The crossover sits at
#: 4.6–4.7; S is the first whole number past it. The gain also grows
#: with what slice 0 prunes: on ``bench_scan_kernel``'s unclustered
#: gaussian rows, where little is, 256 queries read 1.04x.
_LIST_SHARING = 5.0


def _list_major(member_lists) -> bool:
    """The source rule: whether a shard-group whose members probe
    ``member_lists`` (per member, its lists in the shard) is read list
    by list."""
    pairs = sum(len(lists) for lists in member_lists)
    if pairs < _LIST_SHARING:
        return False
    distinct = np.unique(np.concatenate(member_lists)).size
    return pairs >= _LIST_SHARING * distinct


#: Stands in for a trace span that is not there.
_NOTHING = contextlib.nullcontext()


def open_scan(layout, parts, queries, query_norms, plan, metric, lists=None):
    """*Open*: gathered candidates become the scan that walks them.

    The one precision/arity switch. ``parts`` / ``queries`` /
    ``query_norms`` are per-member sequences. One member opens the
    per-query stepping unit (:class:`ShardScan`), exact at every stage:
    the simulator steps it out of canonical order and the serial
    per-query loop — the reference the fused path is checked against —
    runs on it, which is why it is not folded into the group class; a
    one-member chunk of the fused path lands on it too because it
    measures ~10 % cheaper per pool task than a group of one. Several
    members open the fused group scan, two-phase in either precision:
    float32 BLAS bounds to prune on, an exact re-rank of the
    survivors, so its answers are the exact scan's bits computed
    another way. Precision is read off the record: only ``gather_sq8``
    fills ``err``.
    """
    sq8 = {"code_lo": layout.code_lo, "code_scale": layout.code_scale}
    shared = {"slices": plan.slices, "metric": metric}
    if len(parts) == 1 and lists is None:
        part = parts[0]
        shared.update(query=queries[0], query_norms=query_norms[0])
        if part.err is not None:
            return SQ8ShardScan(part, **shared, **sq8)
        return ShardScan(part=part, **shared)
    shared.update(queries=np.stack(queries))
    if metric is not Metric.L2:
        shared.update(query_norms=np.stack(query_norms))
    if parts[0].err is not None:
        return SQ8ShardGroupScan(parts, **shared, **sq8, lists=lists)
    return ShardGroupScan(parts, **shared, lists=lists)


def drive_steps(scan, order, thresholds=None, tracer=None, **labels):
    """*Drive*: Algorithm 1's slice loop — the only copy in the tree.

    Each stage accumulates one dimension slice, prunes on the monotone
    bound and yields ``(block, processed)``: the block and the rows
    alive when the stage began (the compute volume a simulator charges).
    A block is taken from ``order`` only while something is alive.
    :func:`drive_scan` runs it out in canonical order (every host path);
    the simulator (:class:`~repro.core.pipeline.PipelineEngine`) takes
    one stage a round in its own order, and the planner's survival pilot
    (:func:`~repro.core.cost_model.estimate_survival`) reads survival
    off it.

    Args:
        order: dimension blocks, read one per stage, so a generator may
            pick each block when asked (the simulator's load-aware one).
        thresholds: zero-argument threshold source returning what the
            scan's ``prune`` takes (a per-member array; a
            :class:`ShardScan` also takes its one threshold as a
            float); None disables pruning.
        tracer / labels: with a tracer, each stage records a wall
            span carrying ``labels`` (which never affect execution).
    """
    blocks = iter(order)
    while scan.n_alive:
        block = next(blocks, None)
        if block is None:
            return
        with _NOTHING if tracer is None else tracer.wall_span(
            "scan", "computation",
            block=block, alive=int(scan.n_alive), **labels,
        ):
            processed = scan.process_slice(block)
            if thresholds is not None:
                scan.prune(thresholds())
        yield block, processed


def drive_scan(scan, plan, thresholds=None, tracer=None, **labels) -> None:
    """:func:`drive_steps` run to the end in canonical slice order: the
    per-query path (:meth:`ScanKernel.run_scan`) and the fused one
    (:func:`scan_group`), on the caller's thread and in every pool
    worker alike."""
    for _ in drive_steps(
        scan, range(plan.n_dim_blocks), thresholds, tracer, **labels
    ):
        pass


def scan_group(
    layout, gathered, plan, metric, thresholds, sink, tracer=None, shard=None,
    lists=None,
) -> int:
    """*Chunk/demux*: one shard for a group of queries, fused.

    The group is split into query-disjoint chunks bounded by
    :data:`GROUP_BLOCK_ELEMENTS` so the dense per-row bookkeeping stays
    memory-friendly at any batch size (chunks never share a query, so
    chunking cannot change results); each chunk is opened, driven, and
    its survivors handed back per member.

    Args:
        gathered: iterable of ``(member, part, query, query_norms)``
            for the members with candidates, consumed lazily so only
            one chunk's index arrays are resident at a time. ``member``
            is the caller's handle (a :class:`QueryState`).
        thresholds: ``thresholds(members)`` → current per-member
            pruning thresholds (the members' heaps).
        sink: ``sink(member, ids, scores)`` receives each member's
            survivors (a heap push).
        tracer / shard: passed to :func:`drive_scan` as span labels.
        lists: ``(blocks, counts)`` to open the group list-major: the
            members' base candidates as the layout's per-list blocks
            and each member's candidate count. ``gathered`` then holds
            *every* member, in block member order, with its delta part;
            a chunk holds at most :data:`GROUP_BLOCK_ELEMENTS` (member,
            row) pairs and scans the blocks restricted to its members.

    Returns:
        SQ8 candidates re-ranked against their fp32 rows (0 on the fp32
        path, whose group scans re-rank rows they bounded themselves).
    """
    if lists is None:
        max_rows = max(
            1, GROUP_BLOCK_ELEMENTS // (8 + 2 * plan.slices.n_slices)
        )
    else:
        blocks, counts = lists
        max_rows = GROUP_BLOCK_ELEMENTS
    run = (layout, plan, metric, thresholds, sink, tracer, shard)
    reranked = 0
    chunk, chunk_rows, first = [], 0, 0

    def scan_chunk() -> int:
        if lists is None:
            return _scan_chunk(chunk, *run)
        hi = first + len(chunk)
        mine = blocks if (first, hi) == (0, counts.size) else [
            b for b in (b.members_in(first, hi) for b in blocks) if b
        ]
        return _scan_chunk(chunk, *run, lists=mine)

    for item in gathered:
        chunk.append(item)
        chunk_rows += int(
            item[1].ids.size if lists is None
            else counts[first + len(chunk) - 1]
        )
        if chunk_rows >= max_rows:
            reranked += scan_chunk()
            first += len(chunk)
            chunk, chunk_rows = [], 0
    if chunk:
        reranked += scan_chunk()
    return reranked


def _scan_chunk(
    chunk, layout, plan, metric, thresholds, sink, tracer, shard, lists=None
) -> int:
    """Open, drive and demux one chunk of :func:`scan_group`.

    A call of its own so the chunk's scan — its dense arrays and stage
    buffers — dies on return, before the next chunk is gathered.
    """
    members, parts, queries, query_norms = zip(*chunk)
    scan = open_scan(
        layout, parts, queries, query_norms, plan, metric, lists
    )
    drive_scan(
        scan,
        plan,
        lambda: thresholds(members),
        tracer,
        shard=shard,
        group=len(members),
    )
    if scan.n_alive == 0:
        return 0
    survivors = scan.survivors()
    if len(survivors) == 2:  # the per-query unit: one owner
        sink(members[0], *survivors)
    else:  # owner ascends: each member's survivors are one segment
        ids, scores, owner = survivors
        cuts = np.searchsorted(owner, np.arange(len(members) + 1)).tolist()
        for member, lo, hi in zip(members, cuts, cuts[1:]):
            if lo < hi:
                sink(member, ids[lo:hi], scores[lo:hi])
    return getattr(scan, "reranked", 0)


@dataclass
class QueryState:
    """Per-query algorithm state shared by all backends.

    Attributes:
        query_index: position of the query in its batch.
        query: the (cosine-normalized, float32) query vector.
        probe_row: probed inverted-list ids for this query.
        heap: the query's top-K heap; its threshold drives pruning.
        prewarmed: ids already scored during prewarm; every shard
            gather takes them as its ``exclude`` so scans skip them.
        query_norms: per-slice query norms (IP metrics only), computed
            once per query and shared by every shard scan's
            Cauchy-Schwarz bound.
        route: the memoized :class:`~repro.core.routing.CachedRoute`
            stashed by :meth:`ScanKernel.shards_for` when a routing
            cache is attached; carries the per-shard candidate-list
            splits so candidate gathering skips the planner too. None
            when routing ran uncached.
    """

    query_index: int
    query: np.ndarray
    probe_row: np.ndarray
    heap: TopKHeap
    prewarmed: np.ndarray
    query_norms: np.ndarray | None = None
    route: "object | None" = None


class ScanKernel:
    """Candidate gathering, prewarm scoring, slice stepping, merging.

    One kernel instance serves one ``(index, plan)`` pair and is shared
    by every caller searching it. All methods are thread-safe for
    *disjoint* queries (they mutate only the per-query
    :class:`QueryState` / :class:`ShardScan` objects passed in), so
    concurrent callers need no locks beyond the lifetime counters'
    (``_count_lock``) and the cached layout's (``_layout_lock``).

    Args:
        index: trained+populated IVF index (None only through
            :meth:`over_layout`).
        plan: partition plan defining shards and dimension slices.
        metric: similarity metric; defaults to the index's.
        prewarm_size: heap-seeding candidates per query (0 disables).
        enable_pruning: toggle lossless early-stop pruning.
        scan_precision: ``"fp32"`` scans full-precision rows (the
            classic path); ``"sq8"`` generates candidates on the
            packed uint8 representation with error-padded (lossless)
            pruning bounds, then re-ranks survivors against float32 —
            results stay bitwise identical to the fp32 path.
        delta_compact_ratio: compaction trigger — when the packed
            layout's pending rows (delta segments + tombstones) exceed
            this fraction of its base generation, the next
            :meth:`packed_base` merges them into a fresh generation.
        auto_compact: disable to never compact automatically (deltas
            then grow until :meth:`compact` is called explicitly).
    """

    def __init__(
        self,
        index: "IVFFlatIndex",
        plan: PartitionPlan,
        metric: Metric | None = None,
        prewarm_size: int = 32,
        enable_pruning: bool = True,
        scan_precision: str = "fp32",
        delta_compact_ratio: float = 0.25,
        auto_compact: bool = True,
    ) -> None:
        if index is not None and not index.is_trained:
            raise RuntimeError("kernel requires a trained index")
        if prewarm_size < 0:
            raise ValueError(
                f"prewarm_size must be non-negative, got {prewarm_size}"
            )
        scan_precision = str(scan_precision).lower()
        if scan_precision not in ("fp32", "sq8"):
            raise ValueError(
                f"unknown scan_precision {scan_precision!r}; "
                "expected 'fp32' or 'sq8'"
            )
        self.index = index
        self.plan = plan
        self.metric = index.metric if metric is None else metric
        self.prewarm_size = prewarm_size
        self.enable_pruning = enable_pruning
        self.scan_precision = scan_precision
        #: Lifetime counters a backend reads before and after a batch:
        #: candidates re-ranked against fp32 rows by completed SQ8
        #: scans (0 on the fp32 path), and (query, shard) scans skipped
        #: because the shard was in ``skip_shards``. Added to under a
        #: lock because concurrent callers share one kernel.
        self.rerank_candidates_total = 0
        self.skipped_scans_total = 0
        self._count_lock = threading.Lock()
        #: Optional repro.obs.Tracer. When set, host execution records a
        #: wall-clock span per shard-group and per (shard, slice) stage;
        #: None (default)
        #: keeps the scan loops instrumentation-free.
        self.tracer = None
        #: Memoized probe-cell -> shard-set routing (hot, skewed
        #: serving traffic re-routes the same cells constantly). Pure
        #: memoization keyed by index version — results are unchanged.
        #: Set to None to disable.
        self.routing_cache: RoutingCache | None = RoutingCache()
        if delta_compact_ratio <= 0:
            raise ValueError(
                "delta_compact_ratio must be positive, got "
                f"{delta_compact_ratio}"
            )
        self.delta_compact_ratio = float(delta_compact_ratio)
        self.auto_compact = bool(auto_compact)
        #: Full packed-layout constructions (every generation, including
        #: the first build and every compaction).
        self.layout_builds = 0
        #: In-place delta refreshes — mutations absorbed without
        #: touching the base generation.
        self.layout_refreshes = 0
        #: Generations created by merging deltas/tombstones back into
        #: the base (subset of ``layout_builds`` after the first).
        self.layout_compactions = 0
        self._packed: ShardPackedBase | None = None
        #: Serializes packed-layout (re)builds and norm-table refreshes
        #: so concurrent searches through one kernel never tear the
        #: cached data plane (lazy refresh used to race under
        #: multi-threaded callers). Reentrant: the build path reads the
        #: norm cache it also guards.
        self._layout_lock = threading.RLock()
        self._base_slice_norms: np.ndarray | None = None
        if self.metric is not Metric.L2 and index is not None:
            self._base_slice_norms = slice_norms(index.base, plan.slices)

    @classmethod
    def over_layout(
        cls,
        layout: ShardPackedBase,
        plan: PartitionPlan,
        metric: Metric,
        **options,
    ) -> "ScanKernel":
        """A kernel with no index that scans ``layout`` as it stands: a
        pool worker's, over the shared layout it attached. It routes
        without a cache and never refreshes or rebuilds the layout."""
        kernel = cls(None, plan, metric, **options)
        kernel.routing_cache = None
        kernel._packed = layout
        return kernel

    # ------------------------------------------------------------------
    # Batch preparation
    # ------------------------------------------------------------------

    def prepare_queries(self, queries: np.ndarray) -> np.ndarray:
        """Canonicalize a query batch (2-D float32, cosine-normalized)."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if self.metric is Metric.COSINE:
            queries = normalize_rows(queries)
        return queries

    # ------------------------------------------------------------------
    # Cached data plane
    # ------------------------------------------------------------------

    def packed_base(self) -> ShardPackedBase:
        """The shard-major packed layout, maintained incrementally.

        Mutation handling is LSM-style: when the cached layout can
        absorb the index's new state in place (appended rows become
        delta-segment rows, removals flip tombstone bits) it is
        *refreshed* rather than rebuilt — the immutable base generation
        is untouched. Once pending deltas/tombstones exceed
        ``delta_compact_ratio`` of the base (and ``auto_compact`` is
        on), they are merged into a fresh base generation via a full
        rebuild. Results are byte-identical either way.
        """
        if self.index is None:  # bound by over_layout
            return self._packed
        with_codes = self.scan_precision == "sq8"

        def usable(packed) -> bool:
            return packed is not None and (not with_codes or packed.has_codes)

        packed = self._packed
        if usable(packed) and packed.matches(self.index):
            return packed
        with self._layout_lock:
            # Double-checked: another thread may have refreshed while
            # this one waited for the lock.
            packed = self._packed
            if usable(packed) and packed.matches(self.index):
                return packed
            if usable(packed) and packed.can_refresh(self.index):
                self._refresh_base_norms()
                new_norms = None
                if self._base_slice_norms is not None:
                    new_norms = self._base_slice_norms[packed.ntotal :]
                if packed.refresh(self.index, new_slice_norms=new_norms):
                    self.layout_refreshes += 1
                if self.auto_compact and packed.should_compact(
                    self.delta_compact_ratio
                ):
                    return self._rebuild_layout(with_codes, compaction=True)
                return packed
            return self._rebuild_layout(with_codes)

    def _rebuild_layout(
        self, with_codes: bool, compaction: bool = False
    ) -> ShardPackedBase:
        """Build a fresh base generation (caller holds ``_layout_lock``)."""
        self._refresh_base_norms()
        packed = ShardPackedBase.build(
            self.index,
            self.plan,
            base_slice_norms=self._base_slice_norms,
            with_codes=with_codes,
        )
        self._packed = packed
        self.layout_builds += 1
        if compaction:
            self.layout_compactions += 1
        return packed

    def compact(self) -> dict:
        """Merge pending deltas and tombstones into a new generation now.

        Returns a stats dict; ``compacted`` is False when there was
        nothing pending.
        """
        with self._layout_lock:
            packed = self.packed_base()
            merged = packed.delta_rows
            cleared = packed.tombstones_since
            compacted = bool(merged or cleared)
            if compacted:
                packed = self._rebuild_layout(
                    self.scan_precision == "sq8", compaction=True
                )
            return {
                "compacted": compacted,
                "generation": packed.generation,
                "delta_rows_merged": merged,
                "tombstones_cleared": cleared,
            }

    def layout_stats(self) -> dict:
        """Generation/delta counters for reports and metrics."""
        packed = self._packed
        return {
            "layout_generation": packed.generation if packed else 0,
            "delta_rows": packed.delta_rows if packed else 0,
            "tombstones_since_build": (
                packed.tombstones_since if packed else 0
            ),
            "layout_builds": self.layout_builds,
            "layout_refreshes": self.layout_refreshes,
            "layout_compactions": self.layout_compactions,
        }

    def _refresh_base_norms(self) -> None:
        with self._layout_lock:
            if self._base_slice_norms is None:
                return
            cached = self._base_slice_norms.shape[0]
            total = self.index.base.shape[0]
            if cached == total:
                return
            if cached < total:
                # The index grew since the last refresh (streaming
                # adds). Per-row slice norms are independent of their
                # neighbors, so extending the cache with just the new
                # rows is bitwise identical to a full recompute.
                appended = slice_norms(
                    self.index.base[cached:total], self.plan.slices
                )
                self._base_slice_norms = np.concatenate(
                    [self._base_slice_norms, appended], axis=0
                )
            else:  # pragma: no cover - ids are append-only
                self._base_slice_norms = slice_norms(
                    self.index.base, self.plan.slices
                )

    # ------------------------------------------------------------------
    # Algorithm 1 steps
    # ------------------------------------------------------------------

    def begin_query(
        self,
        query_index: int,
        query: np.ndarray,
        probe_row: np.ndarray,
        k: int,
    ) -> QueryState:
        """Create a query's state and prewarm its heap (PrewarmHeap).

        Prewarm scores up to ``prewarm_size`` members of the nearest
        probed list in one batched distance call, seeding the heap with
        a finite threshold before any shard scan starts. The members
        are the head of that list's gather from the packed layout
        (:meth:`~repro.core.layout.ShardPackedBase.list_head`), so a
        pool worker prewarms from the shared layout exactly as the
        caller's kernel does. The per-slice query norms (IP metrics)
        are computed here exactly once.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        heap = TopKHeap(k)
        prewarmed = self._prewarm(query, probe_row, heap)
        query_norms = None
        if self.metric is not Metric.L2:
            query_norms = query_slice_norms(
                np.asarray(query, dtype=np.float32), self.plan.slices
            )
        return QueryState(
            query_index=query_index,
            query=query,
            probe_row=probe_row,
            heap=heap,
            prewarmed=prewarmed,
            query_norms=query_norms,
        )

    def _prewarm(
        self,
        query: np.ndarray,
        probe_row: np.ndarray,
        heap: TopKHeap,
    ) -> np.ndarray:
        if self.prewarm_size == 0 or not self.enable_pruning:
            return np.empty(0, dtype=np.int64)
        nearest = int(probe_row[0])
        ids, rows = self.packed_base().list_head(
            int(self.plan.shard_of_list[nearest]),
            nearest,
            self.prewarm_size,
        )
        if ids.size:
            heap.push_many(scores_to_query(rows, query, self.metric), ids)
        return ids

    def shards_for(self, state: QueryState) -> np.ndarray:
        """Vector shards the query must visit, ascending.

        Served from the :class:`~repro.core.routing.RoutingCache` when
        one is attached (the default): hot probe rows skip both the
        shard-set recomputation *and* the per-shard candidate-list
        split (the full :class:`~repro.core.routing.CachedRoute` is
        stashed on the state for :meth:`_gather_candidates`), which
        matters exactly for the repeated, skewed traffic the serving
        layer sees.
        """
        cache = self.routing_cache
        if cache is None:
            return touched_shards(self.plan, state.probe_row)
        route = cache.route_for(
            self.plan, state.probe_row, self.index.version
        )
        state.route = route
        return route.shards

    def _lists_for(self, state: QueryState, shard: int) -> np.ndarray:
        """The query's probed lists in ``shard``, probe-ordered.

        Reuses the cached route split when :meth:`shards_for` stashed
        one; identical to :func:`shard_candidate_lists` by
        construction (the route is keyed on the exact probe order).
        """
        route = state.route
        if route is not None:
            return route.lists_for(shard)
        return shard_candidate_lists(self.plan, state.probe_row, shard)

    def _gather_candidates(
        self, state: QueryState, shard: int
    ) -> CandidatePart | None:
        """One shard's candidate record for a query, or None if empty.

        Gathered from the packed layout (contiguous shard-local
        ranges) as indices, minus the query's prewarmed ids, so an id
        prewarm scored is never scored again
        (``tests/test_prewarm_exclusion.py``). Those ids are members of
        the nearest probed list, so only its shard's gather excludes
        them; there they are the head of the list's range, cut off by
        range.
        """
        layout = self.packed_base()
        gather = (
            layout.gather_sq8 if self.scan_precision == "sq8"
            else layout.gather
        )
        nearest = self.plan.shard_of_list[state.probe_row[0]]
        part = gather(
            shard, self._lists_for(state, shard),
            exclude=state.prewarmed if nearest == shard else None,
        )
        return part if part.ids.size else None

    def make_scan(self, state: QueryState, shard: int) -> ShardScan | None:
        """Gather one shard's candidates into a fresh :class:`ShardScan`.

        Returns None when the shard contributes no candidates (all its
        probed lists are empty or fully prewarmed).
        """
        part = self._gather_candidates(state, int(shard))
        if part is None:
            return None
        return open_scan(
            self.packed_base(), [part], [state.query], [state.query_norms],
            self.plan, self.metric,
        )

    def count_candidates(self, state: QueryState, shard: int) -> int:
        """Candidate count a shard *would* contribute to a query.

        Degraded-mode coverage accounting: shards skipped for lack of a
        live replica still enter the coverage denominator, so a partial
        result honestly reports how much of its candidate set it saw.
        """
        part = self._gather_candidates(state, int(shard))
        return 0 if part is None else int(part.ids.size)

    def _skip_shard(
        self,
        state: QueryState,
        shard: int,
        coverage: np.ndarray | None,
    ) -> int:
        """Account one shard dropped for lack of a live replica.

        Its candidates enter the coverage total only. Returns 1 when it
        had candidates to lose, else 0: a (query, shard) pair with no
        candidates is no scan, so — as in the simulator — it is not a
        skipped one either.
        """
        lost = self.count_candidates(state, shard)
        if coverage is not None:
            coverage[state.query_index, 1] += lost
        return int(lost > 0)

    def merge_survivors(self, scan: ShardScan, heap: TopKHeap) -> int:
        """Fold a completed scan's survivors into the query heap.

        Returns the number of survivors offered (for per-candidate heap
        cost accounting).
        """
        ids, scores = scan.survivors()
        heap.push_many(scores, ids)
        self._count_rerank_amount(getattr(scan, "reranked", 0))
        return int(ids.size)

    def _count_rerank_amount(self, reranked: int) -> None:
        """Thread-safe add to the lifetime re-rank counter (0 on fp32;
        the process pool reports its workers' counts through this)."""
        if reranked:
            with self._count_lock:
                self.rerank_candidates_total += int(reranked)

    def count_skipped_scans(self, skipped: int) -> None:
        """Thread-safe add to the lifetime skipped-scan counter."""
        if skipped:
            with self._count_lock:
                self.skipped_scans_total += int(skipped)

    def run_scan(
        self, scan: ShardScan, heap: TopKHeap, shard: int | None = None
    ) -> None:
        """Run one scan's full dimension pipeline in canonical order.

        ``shard`` only labels trace spans; it never affects execution.
        """
        drive_scan(
            scan,
            self.plan,
            (lambda: heap.threshold) if self.enable_pruning else None,
            self.tracer,
            shard=shard,
        )
        if scan.n_alive:
            self.merge_survivors(scan, heap)

    def search_one(
        self,
        query_index: int,
        query: np.ndarray,
        probe_row: np.ndarray,
        k: int,
        skip_shards: "frozenset[int] | set[int] | None" = None,
        coverage: np.ndarray | None = None,
    ) -> TopKHeap:
        """Algorithm 1 end-to-end for one query (no timing, no threads).

        This is the reference execution the serial backend runs per
        query.

        Args:
            skip_shards: shards to drop from the scan (degraded mode:
                shards with no live replica). Their candidates count
                toward coverage but are never scored.
            coverage: optional ``(nq, 2)`` array of
                ``[scanned, total]`` candidate counts, updated in place
                at row ``query_index``.
        """
        state = self.begin_query(query_index, query, probe_row, k)
        if coverage is not None:
            coverage[query_index, :] += state.prewarmed.size
        skipped = 0
        for shard in self.shards_for(state):
            shard = int(shard)
            if skip_shards and shard in skip_shards:
                skipped += self._skip_shard(state, shard, coverage)
                continue
            scan = self.make_scan(state, shard)
            if scan is not None:
                if coverage is not None:
                    coverage[query_index, :] += scan.n_candidates
                self.run_scan(scan, state.heap, shard=shard)
        self.count_skipped_scans(skipped)
        return state.heap

    # ------------------------------------------------------------------
    # Batched shard-major execution
    # ------------------------------------------------------------------

    def search(
        self,
        queries: np.ndarray,
        probes: np.ndarray,
        k: int,
        skip_shards: "frozenset[int] | set[int] | None" = None,
        coverage: np.ndarray | None = None,
        batched: bool = True,
    ) -> "list[TopKHeap]":
        """Algorithm 1 for a prepared batch: :meth:`search_batch` when
        ``batched``, pruning is on and there is more than one query,
        else the :meth:`search_one` loop (a ``query`` wall span each
        when traced). The serial loop and every pool worker's task run
        it.
        """
        if batched and self.enable_pruning and queries.shape[0] > 1:
            return self.search_batch(queries, probes, k, skip_shards, coverage)
        tracer = self.tracer
        heaps = []
        for i in range(queries.shape[0]):
            with _NOTHING if tracer is None else tracer.wall_span(
                "query", "computation", query=i
            ):
                heaps.append(self.search_one(
                    i, queries[i], probes[i], k,
                    skip_shards=skip_shards, coverage=coverage,
                ))
        return heaps

    def search_batch(
        self,
        queries: np.ndarray,
        probes: np.ndarray,
        k: int,
        skip_shards: "frozenset[int] | set[int] | None" = None,
        coverage: np.ndarray | None = None,
    ) -> "list[TopKHeap]":
        """Algorithm 1 for a whole batch, fused shard-major.

        Every query is begun (prewarmed) first; then queries are
        grouped by touched shard, shard-groups are processed in
        ascending shard order (each query therefore sees shards in
        exactly the order :meth:`search_one` would), and each group's
        (shard, slice) stages run as single fused calls over every
        member's candidates. Results are bitwise identical to looping
        :meth:`search_one`. It always prunes: :meth:`search` sends a
        pruning-off batch to the loop instead.

        Args:
            queries: prepared query batch ``(nq, dim)``.
            probes: probed list ids ``(nq, nprobe)``.
            k: top-K size.
            skip_shards / coverage: degraded-mode accounting, exactly
                as in :meth:`search_one`: prewarmed candidates count
                toward both coverage columns, a skipped shard's toward
                the total only, and scanned ones as each shard-group
                gathers them.

        Returns:
            One populated heap per query.
        """
        states = [
            self.begin_query(i, queries[i], probes[i], k)
            for i in range(queries.shape[0])
        ]
        groups: dict[int, list[QueryState]] = {}
        skipped = 0
        for state in states:
            if coverage is not None:
                coverage[state.query_index, :] += state.prewarmed.size
            for shard in self.shards_for(state):
                shard = int(shard)
                if skip_shards and shard in skip_shards:
                    skipped += self._skip_shard(state, shard, coverage)
                    continue
                groups.setdefault(shard, []).append(state)
        self.count_skipped_scans(skipped)
        tracer = self.tracer
        for shard in sorted(groups):
            with _NOTHING if tracer is None else tracer.wall_span(
                "shard-group", "computation", shard=shard
            ):
                self.run_shard_group(shard, groups[shard], coverage)
        return [state.heap for state in states]

    def run_shard_group(
        self,
        shard: int,
        group: "list[QueryState]",
        coverage: np.ndarray | None = None,
    ) -> None:
        """Process one shard for every query in ``group``, fused.

        :func:`scan_group` with the query heaps as threshold source and
        a heap push as survivor sink; each member's ``coverage`` row
        (both columns) grows by the candidates gathered here. The
        source is the group's choice (:func:`_list_major`): a group that
        shares its probed lists enough is read list by list from the
        layout, any other one member by member.
        """
        shard = int(shard)
        layout = self.packed_base()
        member_lists = [self._lists_for(state, shard) for state in group]
        if _list_major(member_lists):
            gathered, lists = self._listed(
                layout, shard, group, member_lists, coverage
            )
        else:
            gathered, lists = self._gathered(group, shard, coverage), None

        def thresholds(states) -> np.ndarray:
            return np.array([state.heap.threshold for state in states])

        def sink(state, ids, scores) -> None:
            state.heap.push_many(scores, ids)

        reranked = scan_group(
            layout,
            gathered,
            self.plan,
            self.metric,
            thresholds,
            sink,
            self.tracer,
            shard,
            lists,
        )
        self._count_rerank_amount(reranked)

    def _listed(self, layout, shard, group, member_lists, coverage):
        """List by list: the group's base candidates as the layout's
        per-list blocks, each member with its delta part, for
        :func:`scan_group`'s ``(gathered, lists)``."""
        blocks, deltas = layout._list_rows(
            shard, member_lists,
            [(int(state.probe_row[0]), state.prewarmed) for state in group],
            codes=self.scan_precision == "sq8",
        )
        counts = np.array([part.ids.size for part in deltas])
        for block in blocks:
            counts[block.members] += block.counts
        if coverage is not None:
            for state, count in zip(group, counts.tolist()):
                coverage[state.query_index, :] += count
        gathered = [
            (state, part, state.query, state.query_norms)
            for state, part in zip(group, deltas)
        ]
        return gathered, (blocks, counts)

    def _gathered(self, group, shard, coverage):
        """Member by member: each member's candidates gathered on its
        own, for :func:`scan_group`."""
        for state in group:
            part = self._gather_candidates(state, shard)
            if part is not None:
                if coverage is not None:
                    coverage[state.query_index, :] += part.ids.size
                yield state, part, state.query, state.query_norms


def recall_vs_healthy(
    kernel: ScanKernel,
    queries: np.ndarray,
    probes: np.ndarray,
    k: int,
    query_indices: np.ndarray,
    result_ids: np.ndarray,
) -> float:
    """Mean top-k id overlap between degraded results and a healthy rerun.

    Re-executes the *degraded* queries (only) through the timing-free
    reference loop with every shard available, and measures what
    fraction of the healthy top-k each partial result retained. ``1.0``
    when ``query_indices`` is empty — nothing was degraded.
    """
    if len(query_indices) == 0:
        return 1.0
    overlaps = []
    for i in query_indices:
        i = int(i)
        heap = kernel.search_one(i, queries[i], probes[i], k)
        _, ids = heap.items_arrays()
        healthy = {int(x) for x in ids}
        if not healthy:
            overlaps.append(1.0)
            continue
        got = {int(x) for x in result_ids[i] if x >= 0}
        overlaps.append(len(got & healthy) / len(healthy))
    return float(np.mean(overlaps))


def collect_results(heaps: "list[TopKHeap]", k: int) -> SearchResult:
    """Materialize per-query heaps into a padded :class:`SearchResult`."""
    nq = len(heaps)
    out_dist = np.full((nq, k), np.inf, dtype=np.float64)
    out_ids = np.full((nq, k), -1, dtype=np.int64)
    for i, heap in enumerate(heaps):
        scores, ids = heap.items_arrays()
        n = scores.size
        if n:
            out_dist[i, :n] = scores
            out_ids[i, :n] = ids
    return SearchResult(distances=out_dist, ids=out_ids)
