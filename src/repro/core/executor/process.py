"""Process backend: zero-copy multi-core execution, one dispatcher.

The one backend that runs parts of a search in parallel. Threads in
one interpreter share the GIL and would get only the parallelism numpy
happens to release; this backend sidesteps it with a pool of
*persistent* worker processes scanning the same physical memory:

- **Zero-copy data plane** — the packed shard layout is re-homed into
  one ``multiprocessing.shared_memory`` segment
  (:class:`~repro.core.layout.SharedShardPackedBase`); workers attach
  by name and map the identical pages. Per task, only the chunk's
  query vectors and probe rows go out, and only its ``(n, k)`` result
  rows come back — base vectors are never pickled.
- **A task is a chunk of whole queries** — a worker runs its chunk
  through the kernel's own batch path (:meth:`~repro.core.executor.
  kernel.ScanKernel.search`: prewarm, every touched shard in
  ascending order, top-k) on a kernel bound to the shared layout
  (:meth:`~repro.core.executor.kernel.ScanKernel.over_layout`). A
  query's heap lives in one process from prewarm to top-k and prunes
  against its own threshold, so results are **byte-identical** to the
  serial oracle, and the parent merges nothing: it routes, cuts chunks
  and writes each returned row into the result.
- **A search too small to split stays in the parent** — a search of at
  most :data:`_MIN_CHUNK` queries would be one chunk on one worker, with
  no parallelism to pay for its round trip, so the parent answers it
  with :meth:`HostBackend.search` (the serial oracle's loop, the one
  the fallback runs) on its own kernel, which reads the same shared
  pages. The pool is still started or repaired first, so a small
  search brings it up after a build and counts toward a chaos shm
  drop like any other.
- **One chunk per worker** — each worker has one duplex pipe to the
  parent and shares no lock, queue or control segment with a peer. A
  search is cut once into equal chunks of ⌈queries / workers⌉ (floor
  :data:`_MIN_CHUNK`), one per worker, so each worker's chunk is one
  fused group large enough for the kernel's list-major first slice.
  The price is straggler balancing: a slowed worker delays its own
  chunk, and with it the search. It was paid on purpose: over the
  guided cut this replaced (⌈remaining / (2 · workers)⌉ queries a
  chunk, so a slow worker was handed fewer), one chunk per worker
  raised the ledger's ``batch_process`` throughput by 27 % on a 2-CPU
  host (median of ten alternating seed-7 pairs, higher in all ten).
- **Supervision** — the parent blocks in
  ``multiprocessing.connection.wait`` on the pipes and the workers'
  process sentinels, so a death arrives as an event. The parent drains
  the dead worker's pipe (a result sent before dying still counts),
  puts the chunk it held back at the front of the line and respawns
  the slot (``harmony_worker_respawns_total`` /
  ``harmony_tasks_requeued_total``); the batch completes
  byte-identically on the pool. A chunk is in flight at one worker at
  a time, so every row is written exactly once. A chunk whose holder
  dies :data:`_MAX_TASK_DEATHS` times is taken to be what kills
  workers: in degraded mode its queries are abandoned
  (``harmony_abandoned_scans_total``) — their candidates count as lost
  in coverage and their rows come back empty, flagged degraded —
  otherwise the pool is given up.
- **Graceful degradation** — only when the pool is lost (every worker
  dead at once, shared memory unavailable, a worker raising, or a
  chunk that keeps killing its holders) does the backend tear the pool
  down and re-run the batch in the plain serial loop (same kernel,
  same bytes out).

Chaos kills fire when a worker starts a task (see
:mod:`repro.cluster.host_faults`); a death at any other moment — a
``SIGKILL`` mid-scan — takes the same path, because nothing a worker
holds is shared with another worker.
"""

from __future__ import annotations

import os
import time
import traceback
from multiprocessing.connection import wait

import numpy as np

from repro.cluster.host_faults import apply_task_chaos, sleep_for_delay
from repro.core.executor.base import HostBackend, check_k
from repro.core.executor.kernel import ScanKernel, collect_results
from repro.core.layout import SharedShardPackedBase
from repro.core.partition import PartitionPlan
from repro.core.results import SearchResult
from repro.util.blas import limit_blas_threads

#: Trace lane base for pool workers (caller threads use 1000+).
PROCESS_LANE_BASE = 2000

#: Fewest queries in a chunk (the search's last may hold fewer): below
#: it a chunk's round trip is no longer small beside its scan. A search
#: of at most this many queries would be one chunk on one worker — no
#: parallelism, one round trip — so the parent runs it itself, and a
#: search of a few more is cut into fewer chunks than workers.
_MIN_CHUNK = 4

#: Deaths of the worker holding one chunk after which the chunk
#: itself, not bad luck, is taken to be what kills workers.
_MAX_TASK_DEATHS = 3


class ProcessPoolError(RuntimeError):
    """The worker pool is unusable; the caller should fall back."""


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _pin_to_own_cpu(worker_id: int) -> None:
    """Give pool worker ``worker_id`` a CPU of its own.

    Workers are woken through pipes by one parent, and the kernel's
    wake-affine placement can leave all of them on the parent's CPU
    for seconds while another sits idle (measured: two workers at half
    speed each for the first 1-2 s of a pool's life, ``nivcsw`` 3-6 a
    task, the second CPU 100 % idle), so a batch's wall time depended
    on when the load balancer got round to them. Round-robin over the
    CPUs the process may use; a no-op where that is one CPU or the
    platform has no affinity call.
    """
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[worker_id % len(cpus)]})


def _search_chunk(kernel: ScanKernel, ctx: dict, queries, probes):
    """One chunk of whole queries through :meth:`ScanKernel.search`.

    Returns its ``(n, k)`` distance and id rows, its ``(n, 2)``
    coverage rows (None outside degraded mode) and the re-ranked
    candidates and skipped scans its kernel counted.
    """
    coverage = None
    if ctx["degraded"]:
        coverage = np.zeros((queries.shape[0], 2), dtype=np.int64)
    reranked = kernel.rerank_candidates_total
    skipped = kernel.skipped_scans_total
    heaps = kernel.search(
        queries, probes, ctx["k"], ctx["skip_shards"], coverage,
        batched=ctx["batched"],
    )
    result = collect_results(heaps, ctx["k"])
    return (
        result.distances,
        result.ids,
        coverage,
        kernel.rerank_candidates_total - reranked,
        kernel.skipped_scans_total - skipped,
    )


def _worker_main(worker_id: int, plan: PartitionPlan, metric, conn) -> None:
    """Worker loop: receive a chunk, search it, send its rows back.

    A message is ``(task_id, queries, probes, ctx)``: the chunk's
    prepared queries and probe rows, and the batch context on the
    first chunk of a batch this worker is handed (None on the rest);
    ``None`` stops the worker. The shared layout is re-attached only
    when its segment names move; the kernel is rebound once a batch.
    """
    _pin_to_own_cpu(worker_id)
    limit_blas_threads(1)  # its own CPU: an inherited pool would spin on it
    layout: SharedShardPackedBase | None = None
    # Attachment cache key: (base shm name, overlay shm name). Every
    # overlay sync publishes under a fresh name, so a key change is
    # exactly "the data plane moved" — re-attach (re-mmap, no copy).
    layout_key: "tuple[str, str | None] | None" = None
    kernel: ScanKernel | None = None
    ctx: dict | None = None
    task_ordinal = 0  # lifetime tasks started by this worker slot
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                break
            task_id, queries, probes, batch_ctx = msg
            try:
                if batch_ctx is not None:
                    ctx = batch_ctx
                    manifest = ctx["layout"]
                    overlay = manifest.get("overlay")
                    key = (
                        manifest["shm_name"],
                        overlay["shm_name"] if overlay else None,
                    )
                    if layout_key != key:
                        if layout is not None:
                            layout.close()
                        layout, layout_key = None, None
                        layout = SharedShardPackedBase.attach(manifest)
                        layout_key = key
                    kernel = ScanKernel.over_layout(
                        layout, plan, metric, **ctx["kernel"]
                    )
                delay = apply_task_chaos(ctx["chaos"], worker_id, task_ordinal)
                task_ordinal += 1
                t0 = time.perf_counter()
                rows = _search_chunk(kernel, ctx, queries, probes)
                t1 = time.perf_counter()
                sleep_for_delay(delay, t1 - t0)
                conn.send(("done", task_id, *rows, t0, t1))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    finally:
        if layout is not None:
            layout.close()


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class ProcessBackend(HostBackend):
    """Persistent supervised process-pool execution over shared memory.

    Args:
        index: trained+populated IVF index.
        plan: partition plan; defaults to
            :func:`~repro.core.executor.base.default_plan`.
        n_workers: pool size (default ``os.cpu_count()``).
        **options: every other keyword of
            :class:`~repro.core.executor.base.HostBackend`
            (``batch_queries``, ``degraded_mode`` and the kernel's
            own). The packed layout *is* the shared data plane.

    The pool starts lazily on the first ``search()`` and persists
    across calls; call :meth:`close` (or use the backend as a context
    manager) to release processes and shared segments.

    A task is a chunk of whole queries, each searched in one worker
    from prewarm to top-k; a search is cut into one equal chunk per
    worker, and a search of at most :data:`_MIN_CHUNK` queries is not
    split into tasks but runs in the parent. A worker that dies
    mid-batch is *supervised around*: the chunk it held goes back to
    the front of the line, the worker is respawned, and the batch
    completes on the pool with byte-identical results —
    :attr:`fallback_active` stays False. A slow worker is not
    balanced around: it delays its own chunk. Only losing the pool
    (every worker dead, shared memory gone, a worker error, a chunk
    that keeps killing its holders) flips execution to the serial
    loop, which still returns the same bytes.
    """

    name = "process"

    def __init__(
        self,
        index: "IVFFlatIndex",
        plan: PartitionPlan | None = None,
        n_workers: int | None = None,
        **options,
    ) -> None:
        if n_workers is not None and n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        super().__init__(index, plan=plan, **options)
        self.n_workers = (
            int(n_workers) if n_workers is not None
            else max(1, os.cpu_count() or 1)
        )
        self._procs: list = []
        #: The parent's end of each worker's duplex pipe, by slot.
        self._conns: list = []
        self._shared_layout: SharedShardPackedBase | None = None
        self._pool_broken = False
        #: Full shared-segment re-homes (new base generations copied
        #: into fresh shm). Delta-only mutations must not bump this.
        self.shm_base_rehomes = 0
        #: Overlay-segment republishes (deltas/tombstones shipped to
        #: workers without touching the base pages).
        self.shm_overlay_syncs = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def fallback_active(self) -> bool:
        """True once execution has degraded to the serial loop."""
        return self._pool_broken

    @property
    def pool_running(self) -> bool:
        return bool(self._procs)

    def shared_layout_nbytes(self) -> int:
        """Resident bytes of the shared-memory layout (0 when absent)."""
        layout = self._shared_layout
        return 0 if layout is None or layout.shm_name is None else (
            layout.nbytes
        )

    def _context(self):
        """``fork`` (cheap startup) where the platform has it, else
        ``spawn``."""
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        return mp.get_context("fork" if "fork" in methods else "spawn")

    def _refresh_shared_layout(self) -> SharedShardPackedBase:
        """(Re)home the shared segment only when the base generation moves.

        Delta-absorbed mutations keep the immutable base pages exactly
        where they are: the kernel refreshes the layout in place and
        only the small overlay segment (delta rows + tombstone mask) is
        republished. A full shm re-home happens solely when a *new
        generation* appears — the first build or a compaction.
        """
        layout = self._shared_layout
        packed = self.kernel.packed_base()
        if packed is layout and layout is not None:
            # Same generation: the kernel may have absorbed deltas in
            # place since the last dispatch. Nothing pending needs no
            # overlay, and republishing is a no-op unless the overlay
            # version moved, so a search on a still layout creates no
            # segment.
            if (
                layout.delta_rows or layout.tombstones_since
            ) and layout.sync_overlay():
                self.shm_overlay_syncs += 1
            return layout
        shared = SharedShardPackedBase.from_packed(packed)
        if shared.delta_rows or shared.tombstones_since:
            # The adopted layout already carries pending deltas (it was
            # refreshed before the pool existed); publish them too.
            shared.sync_overlay()
        self._retire_shared_layout()
        # The parent's kernel reads the same pages (the serial fallback,
        # abandoned-chunk accounting): no second resident copy.
        self.kernel._packed = shared
        self._shared_layout = shared
        self.shm_base_rehomes += 1
        return shared

    def _retire_shared_layout(self) -> None:
        """Unlink the shared segment and forget every reference to it.

        The kernel scans the same pages (``kernel._packed`` is the
        shared layout), so that reference goes too: a search after a
        retire — the serial fallback after a chaos drop, a revived
        pool after ``close()`` — rebuilds rather than reading a closed
        mapping.
        """
        layout, self._shared_layout = self._shared_layout, None
        if layout is None:
            return
        if self.kernel._packed is layout:
            self.kernel._packed = None
        layout.unlink()

    def _spawn_worker(self, wid: int, ctx) -> None:
        """Start worker ``wid`` on a fresh pipe."""
        parent_end, child_end = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(wid, self.plan, self.kernel.metric, child_end),
            daemon=True,
        )
        proc.start()
        # Only the worker may hold its end: when it dies, a send to it
        # fails and a read of it ends instead of waiting.
        child_end.close()
        if wid < len(self._procs):
            self._conns[wid].close()
            self._conns[wid] = parent_end
            self._procs[wid] = proc
        else:
            self._conns.append(parent_end)
            self._procs.append(proc)

    def _respawn_worker(self, wid: int, tracer=None) -> None:
        """Replace dead worker ``wid`` with a fresh process; it gets the
        current batch's context with its first task."""
        self._procs[wid].join()  # dead: reaps it at once
        self._spawn_worker(wid, self._context())
        self.fault_counters.worker_respawns += 1
        if self.chaos is not None:
            self.chaos.on_worker_death(wid)
        if tracer is not None:
            now = time.perf_counter()
            tracer.record(
                "worker-respawn", "other",
                node=PROCESS_LANE_BASE + wid,
                start=now, end=now, worker=wid,
            )

    def _ensure_pool(self) -> bool:
        """Start (or repair) the pool; False means use the fallback.

        A partially dead pool is repaired in place — dead slots are
        respawned (counted as ``worker_respawns``) and the batch
        proceeds on the pool. Only a *fully* dead pool, or shared
        memory being unavailable, breaks the pool for good.
        """
        if self._pool_broken:
            return False
        try:
            if self.chaos is not None:
                self.chaos.check_shared_memory(self)
            self._refresh_shared_layout()
            if self._procs:
                dead = [
                    wid for wid, p in enumerate(self._procs)
                    if not p.is_alive()
                ]
                if len(dead) == len(self._procs):
                    raise ProcessPoolError("entire worker pool died")
                for wid in dead:
                    self._respawn_worker(wid, self.tracer)
                return True
            ctx = self._context()
            for wid in range(self.n_workers):
                self._spawn_worker(wid, ctx)
            return True
        except Exception:
            self._teardown_pool()
            self._pool_broken = True
            return False

    def _teardown_pool(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []

    def close(self) -> None:
        """Stop workers and free every shared segment. Idempotent."""
        self._teardown_pool()
        self._retire_shared_layout()
        super().close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    # -- search ---------------------------------------------------------

    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int = 1,
        skip_shards: "frozenset[int] | set[int] | None" = None,
        coverage: np.ndarray | None = None,
    ) -> SearchResult:
        k = check_k(k)
        # The pool is started (or repaired) and the layout published even
        # for a search that stays in the parent, so pool start-up, the
        # chaos shm-drop ordinal and worker repair never depend on a
        # search's size.
        if (
            self._ensure_pool()
            and np.atleast_2d(queries).shape[0] > _MIN_CHUNK
        ):
            try:
                return self._process_search(
                    queries, k, nprobe, skip_shards, coverage
                )
            except (ProcessPoolError, OSError, EOFError):
                self._teardown_pool()
                self._pool_broken = True
        return super().search(
            queries, k, nprobe=nprobe, skip_shards=skip_shards,
            coverage=coverage,
        )

    def _process_search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int,
        skip_shards,
        coverage: np.ndarray | None,
    ) -> SearchResult:
        kernel = self.kernel
        kernel.tracer = None  # worker spans are recorded from timings
        queries, probes = self._route(queries, nprobe)
        nq = queries.shape[0]
        out = SearchResult(
            distances=np.full((nq, k), np.inf, dtype=np.float64),
            ids=np.full((nq, k), -1, dtype=np.int64),
        )
        # Coverage goes to a local buffer and the kernel counts are held
        # back, so a mid-batch fallback cannot double-count them.
        local_cov = (
            np.zeros((nq, 2), dtype=np.int64)
            if coverage is not None else None
        )
        ctx = {
            "layout": self._shared_layout.manifest(),
            "kernel": dict(
                prewarm_size=kernel.prewarm_size,
                enable_pruning=kernel.enable_pruning,
                scan_precision=kernel.scan_precision,
            ),
            "batched": self.batch_queries,
            "k": k,
            "skip_shards": skip_shards,
            "degraded": coverage is not None,
        }
        try:
            reranked, skipped = self._run_tasks(
                queries, probes, ctx, out, local_cov
            )
        except BaseException:
            # Chunks may still be in flight; their rows must never
            # reach the next batch's result.
            self._teardown_pool()
            raise
        if local_cov is not None:
            coverage += local_cov
        kernel._count_rerank_amount(reranked)
        kernel.count_skipped_scans(skipped)
        return out

    def _run_tasks(self, queries, probes, ctx, out, local_cov):
        """Hand out every chunk and place every row, surviving deaths.

        The search is cut once into equal chunks, one per worker.
        ``pending`` is a stack of chunks not yet handed out (its end is
        the front of the line); a chunk whose holder died goes back on
        it and is handed out again once the dead are respawned. ``held``
        maps each busy worker to the one chunk it holds. A chunk is in
        flight at one worker at a time and leaves ``held`` once —
        placed, put back, or abandoned — so no row is written twice.

        Returns the re-ranked candidates and skipped scans the workers
        counted.
        """
        kernel = self.kernel
        tracer = self.tracer
        nq = queries.shape[0]
        size = max(_MIN_CHUNK, -(-nq // len(self._procs)))
        chunks = [(lo, min(nq, lo + size)) for lo in range(0, nq, size)]
        deaths = [0] * len(chunks)
        pending = list(reversed(range(len(chunks))))
        held: dict[int, int] = {}
        briefed: set[int] = set()  # workers holding this batch's ctx
        counts = [0, 0]  # re-ranked candidates, skipped scans

        def hand_out(wid: int) -> None:
            if not pending:
                return
            task_id = held[wid] = pending.pop()
            batch_ctx = None
            if wid not in briefed:
                briefed.add(wid)
                chaos = self.chaos
                batch_ctx = dict(
                    ctx, chaos=None if chaos is None else chaos.process_spec()
                )
            lo, hi = chunks[task_id]
            try:
                self._conns[wid].send(
                    (task_id, queries[lo:hi], probes[lo:hi], batch_ctx)
                )
            except OSError:
                pass  # it died; its sentinel puts the chunk back

        def take(wid: int, msg) -> None:
            if msg[0] == "error":
                raise ProcessPoolError(f"worker {wid} failed:\n{msg[1]}")
            _, task_id, distances, ids, cov, reranked, skipped, t0, t1 = msg
            del held[wid]
            lo, hi = chunks[task_id]
            out.distances[lo:hi] = distances
            out.ids[lo:hi] = ids
            if local_cov is not None:
                local_cov[lo:hi] += cov
            counts[0] += reranked
            counts[1] += skipped
            if tracer is not None:
                tracer.record(
                    "worker-scan", "computation",
                    node=PROCESS_LANE_BASE + wid,
                    start=t0, end=t1, worker=wid, queries=hi - lo,
                )

        def bury(wid: int) -> None:
            """Drain dead worker ``wid``'s pipe and put back its chunk."""
            conn = self._conns[wid]
            try:
                while conn.poll():
                    take(wid, conn.recv())
            except (EOFError, OSError):
                pass
            briefed.discard(wid)
            task_id = held.pop(wid, None)
            if task_id is None:
                return
            deaths[task_id] += 1
            if deaths[task_id] < _MAX_TASK_DEATHS:
                pending.append(task_id)
                self.fault_counters.tasks_requeued += 1
                if tracer is not None:
                    now = time.perf_counter()
                    tracer.record(
                        "task-requeue", "other",
                        node=PROCESS_LANE_BASE + wid,
                        start=now, end=now, tasks=1,
                    )
                return
            if local_cov is None:
                raise ProcessPoolError(
                    f"task {task_id} killed {deaths[task_id]} workers"
                )
            # Abandoned: every candidate of its queries is lost, and
            # their rows stay empty.
            self.fault_counters.abandoned_scans += 1
            for q in range(*chunks[task_id]):
                state = kernel.begin_query(q, queries[q], probes[q], ctx["k"])
                local_cov[q, 1] += state.prewarmed.size + sum(
                    kernel.count_candidates(state, shard)
                    for shard in kernel.shards_for(state)
                )

        for wid in range(len(self._procs)):
            hand_out(wid)
        while held:
            ready = set(wait([
                obj for wid in held
                for obj in (self._conns[wid], self._procs[wid].sentinel)
            ]))
            dead = []
            for wid in list(held):
                if self._conns[wid] in ready:
                    try:
                        msg = self._conns[wid].recv()
                    except (EOFError, OSError):
                        dead.append(wid)
                        continue
                    take(wid, msg)
                if self._procs[wid].sentinel in ready:
                    dead.append(wid)
            if not dead:
                continue
            for wid in dead:
                bury(wid)
            if not any(p.is_alive() for p in self._procs):
                raise ProcessPoolError("entire worker pool died mid-batch")
            for wid in dead:
                self._respawn_worker(wid, tracer)
            for wid in range(len(self._procs)):
                if wid not in held:
                    hand_out(wid)
        return counts
