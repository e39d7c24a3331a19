"""The HARMONY scan kernel: Algorithm 1 implemented exactly once.

Every execution backend — serial reference loop, host thread pool,
worker-process pool, discrete-event simulation — runs the same search
algorithm: prewarm the top-K heap from the nearest probed list, walk
each touched shard's candidates through the dimension pipeline with
lossless early-stop pruning, and merge the survivors into the heap.
:class:`ScanKernel` is that algorithm's single home, and the scan
itself is three module-level functions every caller shares:
:func:`open_scan` (gathered candidates → the right scan object),
:func:`drive_scan` (the slice loop) and :func:`scan_group` (chunking a
shard-group and handing survivors back per query).

The kernel is deliberately *timing-free*: it gathers candidate indices
from a cached :class:`~repro.core.layout.ShardPackedBase`, scores
batches, steps :class:`~repro.core.pruning.ShardScan` objects slice by
slice, and maintains heaps. Backends decide *when* and *where* each
step runs (host threads, simulated machines) and charge whatever cost
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

#: Upper bound on 8-byte elements of dense per-row bookkeeping in one
#: fused group chunk (~8 MB). A chunk holds no candidate rows — they
#: stay in the layout's slabs — so what grows with its row count is the
#: group scan's dense arrays: per row ids, owner, accumulated score,
#: alive index and a stage's partial, the threshold gather, bound, keep
#: mask and kept index of a prune, and up to ``2 * n_slices`` table
#: columns (the IP suffix sums, and the fp32 IP rounding pad or the SQ8
#: error norms) — ``8 + 2 * n_slices`` elements, which
#: :func:`scan_group` divides by. The two stage buffers are sized by
#: the chunk's largest *member* (one member is never split), not by
#: this bound; phase one and the re-rank walk the chunk's rows through
#: them in blocks of that size. Groups larger than it are processed in
#: sequential query-disjoint chunks so the batched path's working set stays
#: cache-and-RAM friendly at any batch size. Not a tuned value: at four
#: slices it gives 62 500 rows a chunk, and 31k–250k rows a chunk time
#: the same on the ledger's ``batch_fp32``.
GROUP_BLOCK_ELEMENTS = 1_000_000

#: Stands in for a trace span or a lock that is not there.
_NOTHING = contextlib.nullcontext()


def gather_part(
    layout: ShardPackedBase,
    scan_precision: str,
    shard: int,
    lists_here: np.ndarray,
    allowed: np.ndarray | None,
    exclude: np.ndarray | None = None,
) -> CandidatePart | None:
    """One (query, shard) candidate record, or None when it is empty.

    ``exclude`` is the query's prewarmed ids (already in its heap): the
    parent's gather and the pool worker's both drop them here, inside
    the one candidate mask, so the surviving order is the same on
    every backend.
    """
    gather = layout.gather_sq8 if scan_precision == "sq8" else layout.gather
    part = gather(shard, lists_here, allowed=allowed, exclude=exclude)
    return part if part.ids.size else None


def open_scan(layout, parts, queries, query_norms, plan, metric):
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
    float32 BLAS bounds while pruning, an exact re-rank of the
    survivors, so its answers are the exact scan's bits computed
    another way. Precision is read off the record: only ``gather_sq8``
    fills ``err``.
    """
    sq8 = {"code_lo": layout.code_lo, "code_scale": layout.code_scale}
    shared = {"slices": plan.slices, "metric": metric}
    if len(parts) == 1:
        part = parts[0]
        shared.update(query=queries[0], query_norms=query_norms[0])
        if part.err is not None:
            return SQ8ShardScan(part, **shared, **sq8)
        return ShardScan(part=part, **shared)
    shared.update(queries=np.stack(queries))
    if metric is not Metric.L2:
        shared.update(query_norms=np.stack(query_norms))
    if parts[0].err is not None:
        return SQ8ShardGroupScan(parts, **shared, **sq8)
    return ShardGroupScan(parts, **shared)


def drive_scan(scan, plan, thresholds=None, tracer=None, **labels) -> None:
    """*Drive*: Algorithm 1's slice loop — the only copy in the tree.

    Accumulate one dimension slice, prune on the monotone bound, stop
    when nothing is alive. :meth:`ScanKernel.run_scan` (the per-query
    path on every backend) and :func:`scan_group` (the fused path of
    the serial/thread backends and the pool workers' task entry) both
    run it; :meth:`ScanKernel.step` stays as the simulator's
    single-stage entry because the simulator chooses its own order.

    Args:
        thresholds: zero-argument threshold source returning what the
            scan's ``prune`` takes (a per-member array; a
            :class:`ShardScan` also takes its one threshold as a
            float); None disables pruning.
        tracer / labels: with a tracer, each stage records a wall
            span carrying ``labels`` (which never affect execution).
    """
    for block in range(plan.n_dim_blocks):
        if scan.n_alive == 0:
            break
        with _NOTHING if tracer is None else tracer.wall_span(
            "scan", "computation",
            block=block, alive=int(scan.n_alive), **labels,
        ):
            scan.process_slice(block)
            if thresholds is not None:
                scan.prune(thresholds())


def scan_group(
    layout, gathered, plan, metric, thresholds, sink, tracer=None, shard=None
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
            is the caller's handle (a :class:`QueryState`, a query
            index).
        thresholds: ``thresholds(members)`` → current per-member
            pruning thresholds (the query heaps on the host backends,
            the shared board row in a pool worker); None disables
            pruning.
        sink: ``sink(member, ids, scores)`` receives each member's
            survivors (a locked heap push, or a worker-local top-k).
        tracer / shard: passed to :func:`drive_scan` as span labels.

    Returns:
        SQ8 candidates re-ranked against their fp32 rows (0 on the fp32
        path, whose group scans re-rank rows they bounded themselves).
    """
    max_rows = max(
        1, GROUP_BLOCK_ELEMENTS // (8 + 2 * plan.slices.n_slices)
    )
    run = (layout, plan, metric, thresholds, sink, tracer, shard)
    reranked = 0
    chunk, chunk_rows = [], 0
    for item in gathered:
        chunk.append(item)
        chunk_rows += int(item[1].ids.size)
        if chunk_rows >= max_rows:
            reranked += _scan_chunk(chunk, *run)
            chunk, chunk_rows = [], 0
    if chunk:
        reranked += _scan_chunk(chunk, *run)
    return reranked


def _scan_chunk(
    chunk, layout, plan, metric, thresholds, sink, tracer, shard
) -> int:
    """Open, drive and demux one chunk of :func:`scan_group`.

    A call of its own so the chunk's scan — its dense arrays and stage
    buffers — dies on return, before the next chunk is gathered.
    """
    members, parts, queries, query_norms = zip(*chunk)
    scan = open_scan(layout, parts, queries, query_norms, plan, metric)
    drive_scan(
        scan,
        plan,
        None if thresholds is None else lambda: thresholds(members),
        tracer,
        shard=shard,
        group=len(members),
    )
    if scan.n_alive == 0:
        return 0
    survivors = scan.survivors()
    if len(survivors) == 2:  # the per-query unit: one owner
        sink(members[0], *survivors)
    else:
        ids, scores, owner = survivors
        for local, member in enumerate(members):
            mask = owner == local
            if mask.any():
                sink(member, ids[mask], scores[mask])
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
    by every backend searching it. All methods are thread-safe for
    *disjoint* queries (they mutate only the per-query
    :class:`QueryState` / :class:`ShardScan` objects passed in), which
    is what lets the thread backend fan queries out without locks; the
    batched path adds per-query locks only where shard-groups sharing a
    query run concurrently.

    Args:
        index: trained+populated IVF index.
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
        routing_cache_size: capacity of the kernel's
            :class:`~repro.core.routing.RoutingCache`.
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
        routing_cache_size: int = 4096,
    ) -> None:
        if not index.is_trained:
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
        #: lock because the thread backend runs queries concurrently.
        self.rerank_candidates_total = 0
        self.skipped_scans_total = 0
        self._count_lock = threading.Lock()
        #: Optional repro.obs.Tracer. When set, host execution records a
        #: wall-clock span per (shard, slice) stage; None (default)
        #: keeps the scan loops instrumentation-free.
        self.tracer = None
        #: Memoized probe-cell -> shard-set routing (hot, skewed
        #: serving traffic re-routes the same cells constantly). Pure
        #: memoization keyed by index version — results are unchanged.
        #: Set to None to disable.
        self.routing_cache: RoutingCache | None = RoutingCache(
            max_entries=routing_cache_size
        )
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
        if self.metric is not Metric.L2:
            self._base_slice_norms = slice_norms(index.base, plan.slices)

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
        allowed: np.ndarray | None = None,
    ) -> QueryState:
        """Create a query's state and prewarm its heap (PrewarmHeap).

        Prewarm scores up to ``prewarm_size`` members of the nearest
        probed list in one batched distance call, seeding the heap with
        a finite threshold before any shard scan starts. The per-slice
        query norms (IP metrics) are computed here exactly once.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        heap = TopKHeap(k)
        prewarmed = self._prewarm(query, probe_row, heap, allowed)
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
        allowed: np.ndarray | None,
    ) -> np.ndarray:
        if self.prewarm_size == 0 or not self.enable_pruning:
            return np.empty(0, dtype=np.int64)
        ids = self.index.list_members(int(probe_row[0]))
        if allowed is not None:
            ids = ids[allowed[ids]]
        ids = ids[: self.prewarm_size]
        if ids.size == 0:
            return ids
        scores = scores_to_query(self.index.base[ids], query, self.metric)
        heap.push_many(scores, ids)
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
        self,
        state: QueryState,
        shard: int,
        allowed: np.ndarray | None,
    ) -> CandidatePart | None:
        """One shard's candidate record for a query, or None if empty.

        Gathered from the packed layout (contiguous shard-local
        ranges) as indices, minus the query's prewarmed ids.
        """
        return gather_part(
            self.packed_base(),
            self.scan_precision,
            shard,
            self._lists_for(state, shard),
            allowed,
            state.prewarmed,
        )

    def make_scan(
        self,
        state: QueryState,
        shard: int,
        allowed: np.ndarray | None = None,
    ) -> ShardScan | None:
        """Gather one shard's candidates into a fresh :class:`ShardScan`.

        Returns None when the shard contributes no candidates (all its
        probed lists are empty, filtered out, or fully prewarmed).
        """
        part = self._gather_candidates(state, int(shard), allowed)
        if part is None:
            return None
        return open_scan(
            self.packed_base(), [part], [state.query], [state.query_norms],
            self.plan, self.metric,
        )

    def count_candidates(
        self,
        state: QueryState,
        shard: int,
        allowed: np.ndarray | None = None,
    ) -> int:
        """Candidate count a shard *would* contribute to a query.

        Degraded-mode coverage accounting: shards skipped for lack of a
        live replica still enter the coverage denominator, so a partial
        result honestly reports how much of its candidate set it saw.
        """
        part = self._gather_candidates(state, int(shard), allowed)
        return 0 if part is None else int(part.ids.size)

    def _skip_shard(
        self,
        state: QueryState,
        shard: int,
        allowed: np.ndarray | None,
        coverage: np.ndarray | None,
    ) -> int:
        """Account one shard dropped for lack of a live replica.

        Its candidates enter the coverage total only. Returns 1 when it
        had candidates to lose, else 0: a (query, shard) pair with no
        candidates is no scan, so — as in the simulator — it is not a
        skipped one either.
        """
        lost = self.count_candidates(state, shard, allowed)
        if coverage is not None:
            coverage[state.query_index, 1] += lost
        return int(lost > 0)

    def step(self, scan: ShardScan, heap: TopKHeap, block: int) -> int:
        """Advance one scan by one dimension block, then prune.

        Returns the number of candidate rows actually processed (the
        compute volume a simulating backend should charge for the
        stage).
        """
        processed = scan.process_slice(block)
        if self.enable_pruning:
            scan.prune(heap.threshold)
        return processed

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
        allowed: np.ndarray | None = None,
        skip_shards: "frozenset[int] | set[int] | None" = None,
        coverage: np.ndarray | None = None,
    ) -> TopKHeap:
        """Algorithm 1 end-to-end for one query (no timing, no threads).

        This is the reference execution the serial backend exposes and
        the thread backend fans out per query.

        Args:
            skip_shards: shards to drop from the scan (degraded mode:
                shards with no live replica). Their candidates count
                toward coverage but are never scored.
            coverage: optional ``(nq, 2)`` array of
                ``[scanned, total]`` candidate counts, updated in place
                at row ``query_index``.
        """
        state = self.begin_query(query_index, query, probe_row, k, allowed)
        if coverage is not None:
            coverage[query_index, :] += state.prewarmed.size
        skipped = 0
        for shard in self.shards_for(state):
            shard = int(shard)
            if skip_shards and shard in skip_shards:
                skipped += self._skip_shard(state, shard, allowed, coverage)
                continue
            scan = self.make_scan(state, shard, allowed)
            if scan is not None:
                if coverage is not None:
                    coverage[query_index, :] += scan.n_candidates
                self.run_scan(scan, state.heap, shard=shard)
        self.count_skipped_scans(skipped)
        return state.heap

    # ------------------------------------------------------------------
    # Batched shard-major execution
    # ------------------------------------------------------------------

    def begin_batch(
        self,
        queries: np.ndarray,
        probes: np.ndarray,
        k: int,
        allowed: np.ndarray | None = None,
        skip_shards: "frozenset[int] | set[int] | None" = None,
        coverage: np.ndarray | None = None,
    ) -> "tuple[list[QueryState], dict[int, list[QueryState]], int]":
        """The fused paths' prologue: begin every query, group by shard.

        Shared by :meth:`search_batch` and the process backend's
        dispatcher. Prewarmed candidates count toward both coverage
        columns and a skipped shard's candidates toward the total
        only; scanned candidates are counted by whoever gathers them
        (:meth:`run_shard_group`, a pool worker's task).

        Returns:
            ``(states, groups, skipped)`` — one state per query, per
            non-skipped shard the states touching it in query order,
            and the number of (query, shard) scans skipped, which the
            caller hands to :meth:`count_skipped_scans` once the batch
            is certain to complete on this path.
        """
        states = [
            self.begin_query(i, queries[i], probes[i], k, allowed)
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
                    skipped += self._skip_shard(
                        state, shard, allowed, coverage
                    )
                    continue
                groups.setdefault(shard, []).append(state)
        return states, groups, skipped

    def search_batch(
        self,
        queries: np.ndarray,
        probes: np.ndarray,
        k: int,
        allowed: np.ndarray | None = None,
        map_groups=None,
        skip_shards: "frozenset[int] | set[int] | None" = None,
        coverage: np.ndarray | None = None,
    ) -> "list[TopKHeap]":
        """Algorithm 1 for a whole batch, fused shard-major.

        Queries are grouped by touched shard; shard-groups are
        processed in ascending shard order (each query therefore sees
        shards in exactly the order :meth:`search_one` would), and each
        group's (shard, slice) stages run as single fused calls over
        every member's candidates. Results are bitwise identical to
        looping :meth:`search_one`.

        Args:
            queries: prepared query batch ``(nq, dim)``.
            probes: probed list ids ``(nq, nprobe)``.
            k: top-K size.
            allowed: optional per-id admissibility mask.
            map_groups: optional ``fn(task, shards)`` executor fanning
                shard-group tasks out concurrently (the thread
                backend); None processes groups in order on the caller.
                When concurrent, per-query locks serialize heap merges
                — pruning thresholds may be read stale, which is safe
                because thresholds only tighten and pruning is
                lossless.
            skip_shards / coverage: degraded-mode accounting, exactly
                as in :meth:`search_one`. Scanned candidates are
                counted from the gather each shard-group performs,
                under the member's lock when groups run concurrently.

        Returns:
            One populated heap per query.
        """
        states, groups, skipped = self.begin_batch(
            queries, probes, k, allowed, skip_shards, coverage
        )
        self.count_skipped_scans(skipped)
        shard_order = sorted(groups)
        locks = (
            None if map_groups is None
            else [threading.Lock() for _ in states]
        )

        def run_group(shard) -> None:
            self.run_shard_group(
                shard, groups[shard], allowed, locks, coverage
            )

        if map_groups is None:
            for shard in shard_order:
                run_group(shard)
        else:
            map_groups(run_group, shard_order)
        return [state.heap for state in states]

    def run_shard_group(
        self,
        shard: int,
        group: "list[QueryState]",
        allowed: np.ndarray | None = None,
        locks: "list[threading.Lock] | None" = None,
        coverage: np.ndarray | None = None,
    ) -> None:
        """Process one shard for every query in ``group``, fused.

        :func:`scan_group` with the query heaps as threshold source and
        a heap push as survivor sink. A member's heap and its
        ``coverage`` row (both columns grow by the candidates gathered
        here) are shared with the other shard-groups it belongs to, so
        both are touched under the member's lock when groups run
        concurrently (``locks``).
        """
        shard = int(shard)

        def locked(state):
            return _NOTHING if locks is None else locks[state.query_index]

        def gathered():
            for state in group:
                part = self._gather_candidates(state, shard, allowed)
                if part is not None:
                    if coverage is not None:
                        with locked(state):
                            coverage[state.query_index, :] += part.ids.size
                    yield state, part, state.query, state.query_norms

        def thresholds(states) -> np.ndarray:
            return np.array([state.heap.threshold for state in states])

        def sink(state, ids, scores) -> None:
            with locked(state):
                state.heap.push_many(scores, ids)

        reranked = scan_group(
            self.packed_base(),
            gathered(),
            self.plan,
            self.metric,
            thresholds if self.enable_pruning else None,
            sink,
            self.tracer,
            shard,
        )
        self._count_rerank_amount(reranked)


def recall_vs_healthy(
    kernel: ScanKernel,
    queries: np.ndarray,
    probes: np.ndarray,
    k: int,
    allowed: np.ndarray | None,
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
        heap = kernel.search_one(i, queries[i], probes[i], k, allowed)
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
