"""Process backend: zero-copy multi-core execution with work stealing.

Python's GIL caps the thread backend at whatever parallelism numpy
happens to release; this backend sidesteps it with a pool of
*persistent* worker processes scanning the same physical memory:

- **Zero-copy data plane** — the packed shard layout is re-homed into
  one ``multiprocessing.shared_memory`` segment
  (:class:`~repro.core.layout.SharedShardPackedBase`); workers attach
  by name and map the identical pages. Per batch, only query vectors,
  probe rows, and prewarm ids go out, and only compact per-query
  top-k candidate arrays come back — base vectors are never pickled.
- **Work stealing** — the batch's (query-group, shard) tasks are
  seeded shard-major onto per-worker deques (contiguous ranges of the
  shared task table, balanced by estimated candidate volume); owners
  pop from the head, idle workers steal from a victim's tail. Skewed
  shard sizes therefore shift work to idle cores instead of leaving
  them parked, and successful steals are counted per worker
  (``harmony_worker_steals_total``).
- **Live thresholds** — the parent merges results as they stream in
  and publishes each query's current heap threshold on a small shared
  float64 board; workers prune against the freshest value. Stale
  (looser) reads only prune less, never wrongly — the bound is
  lossless — so results stay **byte-identical** to the serial oracle
  for any interleaving, batched or per query.
- **Supervision** — each batch runs as one or more *rounds*, every
  round owning a fresh scheduling segment (deque heads/tails + steal
  counters). The parent watches worker liveness while collecting: a
  worker that dies mid-round has its unfinished tasks requeued onto a
  repair round for the survivors and is respawned in the background
  (``harmony_worker_respawns_total`` / ``harmony_tasks_requeued_total``),
  and the query completes byte-identically on the pool — results are
  deduplicated by task, so a task finished twice merges once. A slow
  worker needs no supervision of its own: its peers steal its queued
  tasks. In degraded mode, requeue rounds that complete nothing
  abandon their tasks with per-query coverage accounting
  (``harmony_abandoned_scans_total``).
- **Graceful degradation** — only when the *whole* pool is lost (every
  worker dead, shared memory unavailable, repeated requeues making no
  progress) does the backend tear the pool down and transparently
  re-run the batch on the inherited thread path (same kernel, same
  bytes out).

Per-round scheduling segments are what make recovery safe: a dead
worker can never corrupt the next round's deques because no round ever
reuses another round's control block. Chaos kills fire at task
boundaries (see :mod:`repro.cluster.host_faults`), so the one
genuinely unrecoverable interleaving — a worker dying while *holding a
deque lock* — is left to the stall watchdog, which falls back.
"""

from __future__ import annotations

import os
import queue as _queue_mod
import time
import traceback
import weakref

import numpy as np

from repro.cluster.host_faults import apply_task_chaos, sleep_for_delay
from repro.core.executor.kernel import (
    collect_results,
    gather_part,
    scan_group,
)
from repro.core.executor.threads import ThreadBackend
from repro.core.heap import TopKHeap
from repro.core.layout import (
    SharedShardPackedBase,
    _attach_shm,
    _release_segment,
)
from repro.core.partition import PartitionPlan
from repro.core.results import SearchResult
from repro.core.routing import shard_candidate_lists

#: Trace lane base for pool workers (host threads use 1000+).
PROCESS_LANE_BASE = 2000

#: Target tasks per worker: enough slack for stealing to smooth skew
#: without drowning the result queue in tiny messages.
TASKS_PER_WORKER = 4

#: Seconds between liveness checks while waiting on worker results.
_POLL_SECONDS = 0.2

#: Give-up horizon (seconds) for a batch making zero progress while
#: every worker still claims to be alive.
_STALL_SECONDS = 120.0

#: After the batch's results are in, how long to wait for the workers'
#: round barriers (keeps steal accounting exact on the healthy path;
#: late barriers are reaped by later batches, never waited on).
_SETTLE_GRACE = 2.0

#: Requeue generations without a single task completing before the
#: supervisor declares the pool systematically broken and falls back.
_MAX_BARREN_REQUEUES = 2


class ProcessPoolError(RuntimeError):
    """The worker pool is unusable; the caller should fall back."""


# ---------------------------------------------------------------------------
# Shared scheduling / threshold state
# ---------------------------------------------------------------------------


class _SharedVector:
    """A small numpy vector in its own shared-memory segment.

    Two uses: a round's int64 scheduling block (deque heads/tails +
    steal counts) and a batch's float64 live threshold board.
    """

    def __init__(self, shm, n: int, dtype, owner: bool) -> None:
        self.shm = shm
        self.array = np.ndarray((n,), dtype=dtype, buffer=shm.buf)
        self._owner = owner
        self._finalizer = (
            weakref.finalize(self, _release_segment, shm, True)
            if owner
            else None
        )

    @classmethod
    def create(cls, values: np.ndarray) -> "_SharedVector":
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(
            create=True, size=max(8, values.nbytes)
        )
        out = cls(shm, values.size, values.dtype, owner=True)
        out.array[:] = values
        return out

    @classmethod
    def attach(cls, manifest: dict) -> "_SharedVector":
        return cls(
            _attach_shm(manifest["name"]), manifest["n"], manifest["dtype"],
            owner=False,
        )

    def manifest(self) -> dict:
        return {
            "name": self.shm.name,
            "n": int(self.array.size),
            "dtype": self.array.dtype.str,
        }

    def destroy(self) -> None:
        arr, self.array = self.array, None
        del arr
        finalizer, self._finalizer = self._finalizer, None
        if finalizer is not None:
            finalizer.detach()
        _release_segment(self.shm, unlink=self._owner)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _pop_own(ctrl: np.ndarray, lock, wid: int, n_workers: int) -> int | None:
    """Take the next task from this worker's deque head."""
    with lock:
        head = ctrl[wid]
        if head < ctrl[n_workers + wid]:
            ctrl[wid] = head + 1
            return int(head)
    return None


def _steal(ctrl: np.ndarray, locks, wid: int, n_workers: int) -> int | None:
    """Take a task from some victim's deque tail (LIFO for the thief)."""
    for step in range(1, n_workers):
        victim = (wid + step) % n_workers
        with locks[victim]:
            tail = ctrl[n_workers + victim]
            if ctrl[victim] < tail:
                ctrl[n_workers + victim] = tail - 1
                ctrl[2 * n_workers + wid] += 1  # this thief's steal count
                return int(tail - 1)
    return None


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


def _scan_task(layout, plan, metric, ctx, shard, qidxs, board):
    """One (query-group, shard) task — the pool's only scan entry.

    The kernel's :func:`~repro.core.executor.kernel.scan_group` with the
    shared board row as threshold source and a worker-local
    :class:`TopKHeap` per member as survivor sink, so only compact
    top-k arrays cross the process boundary. A one-member task is a
    group of one for dispatch; which scan class serves it is
    ``open_scan``'s choice.

    Returns ``(payload, n_reranked)`` with one
    ``(qidx, scores, ids, n_candidates)`` payload entry per member.
    """
    out = {
        q: [np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64), 0]
        for q in qidxs
    }
    query_norms = ctx["query_norms"]

    def gathered():
        for qidx in qidxs:
            part = gather_part(
                layout,
                ctx["scan_precision"],
                shard,
                shard_candidate_lists(plan, ctx["probes"][qidx], shard),
                ctx["allowed"],
                ctx["prewarm"][qidx],
            )
            if part is not None:
                out[qidx][2] = int(part.ids.size)
                yield (
                    qidx,
                    part,
                    ctx["queries"][qidx],
                    None if query_norms is None else query_norms[qidx],
                )

    def sink(qidx, ids, scores) -> None:
        heap = TopKHeap(ctx["k"])
        heap.push_many(scores, ids)
        out[qidx][0], out[qidx][1] = heap.items_arrays()

    reranked = scan_group(
        layout,
        gathered(),
        plan,
        metric,
        (lambda members: board[list(members)])
        if ctx["enable_pruning"]
        else None,
        sink,
    )
    return [(q, *out[q]) for q in qidxs], reranked


def _worker_main(
    worker_id: int,
    n_workers: int,
    plan: PartitionPlan,
    metric,
    cmd_queue,
    result_queue,
    locks,
) -> None:
    """Worker loop: wait for a round, drain own deque, steal, repeat.

    Every ``batch`` command carries its own scheduling segment
    (``ctx["ctrl"]``) and threshold board; both are attached for the
    round and dropped after, so a straggler can never touch a newer
    round's deques. A round whose shared segments are already gone
    (the parent finished the batch without this worker) degenerates
    to an immediate barrier message.
    """
    _pin_to_own_cpu(worker_id)
    layout: SharedShardPackedBase | None = None
    # Attachment cache key: (base shm name, overlay shm name). Every
    # overlay sync publishes under a fresh name, so a key change is
    # exactly "the data plane moved" — re-attach (re-mmap, no copy).
    layout_key: "tuple[str, str | None] | None" = None
    task_ordinal = 0  # lifetime tasks started by this worker slot

    def flush_results() -> None:
        # Chaos-kill hook: push buffered results to the parent before
        # dying so replaying a schedule yields the same message set.
        result_queue.close()
        result_queue.join_thread()

    try:
        while True:
            msg = cmd_queue.get()
            if msg[0] == "stop":
                break
            if msg[0] != "batch":
                continue
            batch_id, ctx = msg[1], msg[2]
            board = None
            ctrl = None
            try:
                try:
                    manifest = ctx["layout"]
                    overlay = manifest.get("overlay")
                    key = (
                        manifest["shm_name"],
                        overlay["shm_name"] if overlay else None,
                    )
                    if layout is None or layout_key != key:
                        if layout is not None:
                            layout.close()
                            layout = None
                        layout = SharedShardPackedBase.attach(manifest)
                        layout_key = key
                    board = _SharedVector.attach(ctx["thresholds"])
                    ctrl = _SharedVector.attach(ctx["ctrl"])
                except FileNotFoundError:
                    # Stale round: the batch already finished and its
                    # segments were reclaimed. Barrier out and move on.
                    result_queue.put(("done", batch_id, worker_id))
                    continue
                chaos_spec = ctx.get("chaos")
                tasks = ctx["tasks"]
                my_lock = locks[worker_id]
                while True:
                    task_id = _pop_own(
                        ctrl.array, my_lock, worker_id, n_workers
                    )
                    if task_id is None:
                        task_id = _steal(
                            ctrl.array, locks, worker_id, n_workers
                        )
                    if task_id is None:
                        break
                    delay = apply_task_chaos(
                        chaos_spec, worker_id, task_ordinal,
                        flush=flush_results,
                    )
                    task_ordinal += 1
                    shard, qidxs = tasks[task_id]
                    t0 = time.perf_counter()
                    payload, reranked = _scan_task(
                        layout, plan, metric, ctx, shard, qidxs,
                        board.array,
                    )
                    t1 = time.perf_counter()
                    sleep_for_delay(delay, t1 - t0)
                    result_queue.put(
                        (
                            "task", batch_id, worker_id, task_id,
                            payload, reranked, t0, t1, int(shard),
                        )
                    )
                # Round barrier: after this message the worker provably
                # never touches this round's ctrl segment again, so the
                # parent may reclaim it.
                result_queue.put(("done", batch_id, worker_id))
            except Exception:
                result_queue.put(
                    ("error", batch_id, worker_id, traceback.format_exc())
                )
            finally:
                if board is not None:
                    board.destroy()
                if ctrl is not None:
                    ctrl.destroy()
    finally:
        if layout is not None:
            layout.close()


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class ProcessBackend(ThreadBackend):
    """Persistent supervised process-pool execution over shared memory.

    Args:
        index: trained+populated IVF index.
        plan: partition plan; defaults to
            :func:`~repro.core.executor.base.default_plan`.
        n_workers: pool size (default ``os.cpu_count()``).
        start_method: multiprocessing start method; default prefers
            ``fork`` (cheap startup) and falls back to ``spawn``.
        **options: every other keyword of
            :class:`~repro.core.executor.base.HostBackend`
            (``batch_queries``, ``degraded_mode`` and the kernel's
            own). The packed layout *is* the shared data plane.

    The pool starts lazily on the first ``search()`` and persists
    across calls; call :meth:`close` (or use the backend as a context
    manager) to release processes and shared segments.

    A worker that dies mid-batch is *supervised around*: its
    unfinished tasks are requeued onto the survivors, the worker is
    respawned in the background, and the batch completes on the pool
    with byte-identical results — :attr:`fallback_active` stays False.
    A slow worker is not supervised at all: idle workers steal the
    tasks still queued behind it. Only a total loss (every worker
    dead, shared memory gone, or repeated requeues without progress)
    flips execution to the inherited thread path, which still returns
    the same bytes.
    """

    name = "process"

    def __init__(
        self,
        index: "IVFFlatIndex",
        plan: PartitionPlan | None = None,
        n_workers: int | None = None,
        start_method: str | None = None,
        **options,
    ) -> None:
        if n_workers is not None and n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        super().__init__(index, plan=plan, n_threads=n_workers, **options)
        self.n_workers = (
            int(n_workers) if n_workers is not None
            else max(1, os.cpu_count() or 1)
        )
        self._start_method = start_method
        self._procs: list = []
        self._cmd_queues: list = []
        self._result_queue = None
        self._locks: list = []
        self._shared_layout: SharedShardPackedBase | None = None
        self._pool_broken = False
        self._round_counter = 0
        #: Live round records keyed by round id; rounds whose barriers
        #: outlast their batch's settle grace are reaped here later.
        self._rounds: dict[int, dict] = {}
        #: Successful steals per worker during the most recent
        #: search() — zeros when the pool ran no task for it.
        self.last_steal_counts: np.ndarray = np.zeros(
            self.n_workers, dtype=np.int64
        )
        #: Successful steals accumulated over the backend's lifetime.
        self.total_steals = 0
        #: Full shared-segment re-homes (new base generations copied
        #: into fresh shm). Delta-only mutations must not bump this.
        self.shm_base_rehomes = 0
        #: Overlay-segment republishes (deltas/tombstones shipped to
        #: workers without touching the base pages).
        self.shm_overlay_syncs = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def fallback_active(self) -> bool:
        """True once execution has degraded to the thread path."""
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
        import multiprocessing as mp

        if self._start_method is not None:
            return mp.get_context(self._start_method)
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
            # place since the last dispatch; republishing is a no-op
            # unless the overlay version moved.
            if layout.sync_overlay():
                self.shm_overlay_syncs += 1
            return layout
        shared = SharedShardPackedBase.from_packed(packed)
        if shared.delta_rows or shared.tombstones_since:
            # The adopted layout already carries pending deltas (it was
            # refreshed before the pool existed); publish them too.
            shared.sync_overlay()
        self._retire_shared_layout()
        # The parent scans the same pages: no second resident copy.
        self.kernel._packed = shared
        self._shared_layout = shared
        self.shm_base_rehomes += 1
        return shared

    def _retire_shared_layout(self) -> None:
        """Unlink the shared segment and forget every reference to it.

        The kernel scans the same pages (``kernel._packed`` is the
        shared layout), so that reference goes too: a search after a
        retire — the thread fallback after a chaos drop, a revived
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
        """Start worker ``wid`` on a fresh command queue."""
        q = ctx.Queue()
        proc = ctx.Process(
            target=_worker_main,
            args=(
                wid, self.n_workers, self.plan, self.kernel.metric,
                q, self._result_queue, self._locks,
            ),
            daemon=True,
        )
        proc.start()
        if wid < len(self._procs):
            self._cmd_queues[wid] = q
            self._procs[wid] = proc
        else:
            self._cmd_queues.append(q)
            self._procs.append(proc)

    def _respawn_worker(self, wid: int, tracer=None) -> None:
        """Replace a dead worker slot with a fresh process.

        The old command queue is dropped (its pending round commands
        died with the worker — the supervisor requeues those tasks);
        the new worker joins from the *next* round dispatched.
        """
        old_q = self._cmd_queues[wid]
        try:
            old_q.close()
        except Exception:
            pass
        self._spawn_worker(wid, self._context())
        self.fault_counters.worker_respawns += 1
        if self.chaos is not None:
            self.chaos.on_worker_death(wid)
        if tracer is not None:
            now = time.perf_counter()
            tracer.record(
                "worker-respawn", "fault",
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
            self._locks = [ctx.Lock() for _ in range(self.n_workers)]
            self._result_queue = ctx.Queue()
            for wid in range(self.n_workers):
                self._spawn_worker(wid, ctx)
            return True
        except Exception:
            self._teardown_pool()
            self._pool_broken = True
            return False

    def _teardown_pool(self) -> None:
        for q, proc in zip(self._cmd_queues, self._procs):
            try:
                q.put(("stop",))
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in self._cmd_queues:
            try:
                q.close()
            except Exception:
                pass
        if self._result_queue is not None:
            try:
                self._result_queue.close()
            except Exception:
                pass
        self._procs = []
        self._cmd_queues = []
        self._result_queue = None
        self._locks = []
        for rec in self._rounds.values():
            rec["ctrl"].destroy()
        self._rounds = {}

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

    # -- scheduling -----------------------------------------------------

    def _make_tasks(
        self, groups: "dict[int, list]"
    ) -> "list[tuple[int, tuple[int, ...]]]":
        """Shard-major (query-group, shard) task table.

        Batched mode splits each shard's query group into chunks so
        the table holds ~:data:`TASKS_PER_WORKER` tasks per worker —
        enough granularity for stealing to smooth skew. Per-query mode
        emits one task per (query, shard); both are query-disjoint, so
        the split can never change results.
        """
        chunk = 1
        if self.batch_queries:
            total = sum(len(v) for v in groups.values())
            target = max(1, TASKS_PER_WORKER * self.n_workers)
            chunk = max(1, -(-total // target))
        tasks: list[tuple[int, tuple[int, ...]]] = []
        for shard in sorted(groups):
            members = [state.query_index for state in groups[shard]]
            for i in range(0, len(members), chunk):
                tasks.append((shard, tuple(members[i: i + chunk])))
        return tasks

    def _seed_ranges(
        self, round_tasks, alive: "list[int]"
    ) -> "list[tuple[int, int]]":
        """Contiguous deque ranges balanced by estimated scan volume.

        Only ``alive`` workers receive a non-empty range; dead slots
        get ``(0, 0)`` and any worker can still steal from any range,
        so one live worker suffices to drain the round.
        """
        n = self.n_workers
        ranges = [(0, 0)] * n
        if not round_tasks or not alive:
            return ranges
        layout = self._shared_layout
        weights = np.array(
            [
                max(1, len(qidxs))
                * max(1, layout.shard_size(shard))
                for shard, qidxs in round_tasks
            ],
            dtype=np.float64,
        )
        cum = np.cumsum(weights)
        total = cum[-1]
        m = len(alive)
        bounds = [0]
        for w in range(1, m):
            bounds.append(int(np.searchsorted(cum, total * w / m)))
        bounds.append(len(round_tasks))
        for i in range(1, len(bounds)):
            bounds[i] = max(bounds[i], bounds[i - 1])
        for slot, wid in enumerate(sorted(alive)):
            ranges[wid] = (bounds[slot], bounds[slot + 1])
        return ranges

    # -- search ---------------------------------------------------------

    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int = 1,
        filter_labels: "np.ndarray | list[int] | None" = None,
        skip_shards: "frozenset[int] | set[int] | None" = None,
        coverage: np.ndarray | None = None,
    ) -> SearchResult:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.last_steal_counts = np.zeros(self.n_workers, dtype=np.int64)
        if self._ensure_pool():
            try:
                return self._process_search(
                    queries, k, nprobe, filter_labels, skip_shards, coverage
                )
            except (ProcessPoolError, OSError, EOFError):
                self._teardown_pool()
                self._pool_broken = True
        return super().search(
            queries, k, nprobe=nprobe, filter_labels=filter_labels,
            skip_shards=skip_shards, coverage=coverage,
        )

    def _process_search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int,
        filter_labels,
        skip_shards,
        coverage: np.ndarray | None,
    ) -> SearchResult:
        kernel = self.kernel
        tracer = self.tracer
        kernel.tracer = None  # worker spans are recorded from timings
        queries, probes, allowed = self._route(queries, nprobe, filter_labels)
        nq = queries.shape[0]

        # Prewarm in the parent (it owns the heaps), exactly as the
        # kernel's batched path does; coverage goes to a local buffer
        # and the skip count is held back, so a mid-batch fallback
        # cannot double-count either.
        local_cov = (
            np.zeros((nq, 2), dtype=np.int64)
            if coverage is not None else None
        )
        states, groups, skipped = kernel.begin_batch(
            queries, probes, k, allowed, skip_shards, local_cov
        )
        tasks = self._make_tasks(groups)
        if tasks:
            self._dispatch_batch(
                tasks, states, queries, probes, allowed, k, local_cov,
                tracer,
            )
        if local_cov is not None:
            coverage += local_cov
        kernel.count_skipped_scans(skipped)
        return collect_results([state.heap for state in states], k)

    def _dispatch_batch(
        self, tasks, states, queries, probes, allowed, k, local_cov, tracer
    ) -> None:
        board = _SharedVector.create(
            np.array([s.heap.threshold for s in states], dtype=np.float64)
        )
        query_norms = None
        if states and states[0].query_norms is not None:
            query_norms = np.stack([s.query_norms for s in states])
        ctx_base = {
            "layout": self._shared_layout.manifest(),
            "thresholds": board.manifest(),
            "queries": queries,
            "probes": probes,
            "prewarm": [s.prewarmed for s in states],
            "query_norms": query_norms,
            "allowed": allowed,
            "k": k,
            "enable_pruning": self.enable_pruning,
            "scan_precision": self.scan_precision,
        }
        try:
            self._supervise(
                tasks, ctx_base, states, board, allowed, local_cov, tracer
            )
        finally:
            board.destroy()

    # -- supervision ----------------------------------------------------

    def _alive_workers(self) -> "list[int]":
        return [
            wid for wid, p in enumerate(self._procs) if p.is_alive()
        ]

    def _dispatch_round(
        self, task_ids, tasks, ctx_base, batch_tag, gen, completed_count
    ) -> dict:
        """Ship one round (a subset of the batch's tasks) to the pool."""
        alive = self._alive_workers()
        if not alive:
            raise ProcessPoolError("no live workers to dispatch to")
        self._round_counter += 1
        rid = self._round_counter
        round_tasks = [tasks[t] for t in task_ids]
        ctrl = _SharedVector.create(
            np.zeros(3 * self.n_workers, dtype=np.int64)
        )
        ranges = self._seed_ranges(round_tasks, alive)
        n = self.n_workers
        for wid, (start, stop) in enumerate(ranges):
            ctrl.array[wid] = start  # head
            ctrl.array[n + wid] = stop  # tail
            ctrl.array[2 * n + wid] = 0  # steals
        chaos_spec = (
            self.chaos.process_spec() if self.chaos is not None else None
        )
        ctx = dict(
            ctx_base,
            tasks=round_tasks,
            ctrl=ctrl.manifest(),
            chaos=chaos_spec,
        )
        rec = {
            "id": rid,
            "batch": batch_tag,
            "task_ids": tuple(task_ids),
            "ctrl": ctrl,
            "workers": set(alive),
            "done": set(),
            "gen": int(gen),
            "completed_at_dispatch": int(completed_count),
        }
        self._rounds[rid] = rec
        for wid in alive:
            self._cmd_queues[wid].put(("batch", rid, ctx))
        return rec

    def _settle_round(self, rec) -> None:
        """Reclaim a round whose workers have all barriered (or died)."""
        n = self.n_workers
        steals = np.array(
            rec["ctrl"].array[2 * n: 3 * n], dtype=np.int64
        )
        self.last_steal_counts = self.last_steal_counts + steals
        self.total_steals += int(steals.sum())
        rec["ctrl"].destroy()
        del self._rounds[rec["id"]]

    def _supervise(
        self, tasks, ctx_base, states, board, allowed, local_cov, tracer
    ) -> None:
        """Run the batch to completion across supervised rounds.

        Invariants that keep results byte-identical under any fault
        schedule:

        - every task id is merged **at most once** (``completed`` /
          ``abandoned`` gate the merge), so a requeued re-execution
          can never double-push candidates;
        - rounds never share scheduling segments, so a late worker from
          round *i* cannot pop tasks meant for round *j*;
        - a task is only *abandoned* in degraded mode, after requeue
          rounds stop completing anything, and its missed
          candidates are charged to the per-query coverage buffer the
          same way skipped shards are.
        """
        batch_tag = object()  # identity tag: this batch's rounds
        kernel = self.kernel
        outstanding = set(range(len(tasks)))
        completed: set[int] = set()
        abandoned: set[int] = set()
        covered = {t: set() for t in outstanding}  # task -> active rounds

        def abandon(task_ids) -> None:
            for t in task_ids:
                if t not in outstanding:
                    continue
                outstanding.discard(t)
                abandoned.add(t)
                self.fault_counters.abandoned_scans += 1
                shard, qidxs = tasks[t]
                for q in qidxs:
                    local_cov[q, 1] += kernel.count_candidates(
                        states[q], shard, allowed
                    )

        def requeue_after_settle(rec) -> None:
            if rec["batch"] is not batch_tag:
                return  # a previous batch's late round
            stale = [
                t for t in rec["task_ids"]
                if t in outstanding and not covered[t]
            ]
            if not stale:
                return
            made_progress = len(completed) > rec["completed_at_dispatch"]
            if not made_progress and rec["gen"] >= _MAX_BARREN_REQUEUES:
                if local_cov is not None:
                    abandon(stale)
                    return
                raise ProcessPoolError(
                    f"{rec['gen']} requeue rounds completed no tasks"
                )
            self.fault_counters.tasks_requeued += len(stale)
            if tracer is not None:
                now = time.perf_counter()
                tracer.record(
                    "task-requeue", "fault",
                    node=PROCESS_LANE_BASE,
                    start=now, end=now, tasks=len(stale),
                )
            new_rec = self._dispatch_round(
                stale, tasks, ctx_base, batch_tag,
                gen=rec["gen"] + 1, completed_count=len(completed),
            )
            for t in stale:
                covered[t].add(new_rec["id"])

        def mark_round_progress(rec) -> None:
            if rec["workers"] <= rec["done"]:
                for t in rec["task_ids"]:
                    cov = covered.get(t)
                    if cov is not None:
                        cov.discard(rec["id"])
                self._settle_round(rec)
                requeue_after_settle(rec)

        def check_workers() -> None:
            dead = [
                wid for wid, p in enumerate(self._procs)
                if not p.is_alive()
            ]
            if not dead:
                return
            if len(dead) == len(self._procs):
                raise ProcessPoolError("entire worker pool died mid-batch")
            for wid in dead:
                self._respawn_worker(wid, tracer)
            for rec in list(self._rounds.values()):
                before = len(rec["workers"])
                rec["workers"] -= set(dead)
                if len(rec["workers"]) != before:
                    mark_round_progress(rec)

        first = self._dispatch_round(
            sorted(outstanding), tasks, ctx_base, batch_tag,
            gen=0, completed_count=0,
        )
        for t in outstanding:
            covered[t].add(first["id"])

        last_progress = time.monotonic()
        while outstanding:
            try:
                msg = self._result_queue.get(timeout=_POLL_SECONDS)
            except _queue_mod.Empty:
                msg = None
            now = time.monotonic()
            if msg is None:
                check_workers()
                if now - last_progress > _STALL_SECONDS:
                    raise ProcessPoolError("worker pool stalled")
                continue
            kind, rid = msg[0], msg[1]
            if kind == "error":
                raise ProcessPoolError(f"worker failed:\n{msg[3]}")
            rec = self._rounds.get(rid)
            if rec is None:
                continue  # stale leftovers from a reclaimed round
            if kind == "done":
                rec["done"].add(msg[2])
                mark_round_progress(rec)
                last_progress = now
                continue
            _, _, wid, local_tid, payload, reranked, t0, t1, shard = msg
            if rec["batch"] is not batch_tag:
                continue  # a previous batch's task: states are gone
            orig = rec["task_ids"][local_tid]
            if orig in completed or orig in abandoned:
                continue  # a requeued duplicate: first result won
            completed.add(orig)
            outstanding.discard(orig)
            last_progress = now
            kernel._count_rerank_amount(reranked)
            for qidx, scores, ids, n_candidates in payload:
                if local_cov is not None:
                    local_cov[qidx, :] += int(n_candidates)
                if len(scores):
                    heap = states[qidx].heap
                    heap.push_many(scores, ids)
                    board.array[qidx] = heap.threshold
            if tracer is not None:
                tracer.record(
                    "worker-scan", "computation",
                    node=PROCESS_LANE_BASE + wid,
                    start=t0, end=t1,
                    worker=wid, shard=shard,
                    queries=len(payload),
                )

        # All results are in. Give the round barriers a short grace
        # window so steal accounting stays exact on the healthy path;
        # barriers later than that are reaped by later batches.
        grace_end = time.monotonic() + _SETTLE_GRACE
        while any(
            rec["batch"] is batch_tag for rec in self._rounds.values()
        ):
            remaining = grace_end - time.monotonic()
            if remaining <= 0:
                break
            try:
                msg = self._result_queue.get(
                    timeout=min(_POLL_SECONDS, remaining)
                )
            except _queue_mod.Empty:
                try:
                    check_workers()
                except ProcessPoolError:
                    break  # results are already in; next search repairs
                continue
            if msg[0] == "done":
                rec = self._rounds.get(msg[1])
                if rec is not None:
                    rec["done"].add(msg[2])
                    if rec["workers"] <= rec["done"]:
                        self._settle_round(rec)
            elif msg[0] == "error":
                raise ProcessPoolError(f"worker failed:\n{msg[3]}")
            # task messages here are duplicates of completed tasks
