"""Process backend: zero-copy multi-core execution, one dispatcher.

Python's GIL caps the thread backend at whatever parallelism numpy
happens to release; this backend sidesteps it with a pool of
*persistent* worker processes scanning the same physical memory:

- **Zero-copy data plane** — the packed shard layout is re-homed into
  one ``multiprocessing.shared_memory`` segment
  (:class:`~repro.core.layout.SharedShardPackedBase`); workers attach
  by name and map the identical pages. Per batch, only query vectors,
  probe rows, and prewarm ids go out, and only compact per-query
  top-k candidate arrays come back — base vectors are never pickled.
- **The parent hands out every task** — a batch is a shard-major table
  of (query-group, shard) tasks. Each worker has one duplex pipe to
  the parent and shares no lock, queue or control segment with a peer.
  The parent keeps one task in flight per live worker and sends a
  worker its next task as soon as the previous result arrives, before
  merging that result, so a slow worker is simply handed fewer tasks:
  load is balanced where work is dispatched, as the paper's client
  does (§4.3), not by a second mechanism among the workers.
- **Live thresholds** — the parent merges results as they stream in
  and publishes each query's current heap threshold on a small shared
  float64 board; workers prune against the freshest value. Stale
  (looser) reads only prune less, never wrongly — the bound is
  lossless — so results stay **byte-identical** to the serial oracle
  for any interleaving, batched or per query.
- **Supervision** — the parent blocks in
  ``multiprocessing.connection.wait`` on the pipes and the workers'
  process sentinels, so a death arrives as an event. The parent drains
  the dead worker's pipe (a result sent before dying still counts),
  puts the task it held back at the front of the pending list and
  respawns the slot (``harmony_worker_respawns_total`` /
  ``harmony_tasks_requeued_total``); the batch completes
  byte-identically on the pool. A task is in flight at one worker at a
  time, so every task merges exactly once. A task whose holder dies
  :data:`_MAX_TASK_DEATHS` times is taken to be what kills workers: in
  degraded mode it is abandoned with per-query coverage accounting
  (``harmony_abandoned_scans_total``), otherwise the pool is given up.
- **Graceful degradation** — only when the pool is lost (every worker
  dead at once, shared memory unavailable, a worker raising, or a task
  that keeps killing its holders) does the backend tear the pool down
  and re-run the batch in the plain serial loop (same kernel, same
  bytes out).

Chaos kills fire when a worker starts a task (see
:mod:`repro.cluster.host_faults`); a death at any other moment — a
``SIGKILL`` mid-scan — takes the same path, because nothing a worker
holds is shared with another worker.
"""

from __future__ import annotations

import os
import time
import traceback
import weakref
from multiprocessing.connection import wait

import numpy as np

from repro.cluster.host_faults import apply_task_chaos, sleep_for_delay
from repro.core.executor.base import HostBackend
from repro.core.executor.kernel import (
    collect_results,
    gather_part,
    scan_group,
)
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

#: Target tasks per worker: enough that a slow worker is handed a
#: smaller share of the batch, few enough that the per-task round trip
#: stays small beside the scan.
TASKS_PER_WORKER = 4

#: Deaths of the worker holding one task after which the task itself,
#: not bad luck, is taken to be what kills workers.
_MAX_TASK_DEATHS = 3


class ProcessPoolError(RuntimeError):
    """The worker pool is unusable; the caller should fall back."""


# ---------------------------------------------------------------------------
# Shared threshold board
# ---------------------------------------------------------------------------


class _SharedVector:
    """A small numpy vector in its own shared-memory segment: a batch's
    float64 live threshold board."""

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


def _worker_main(worker_id: int, plan: PartitionPlan, metric, conn) -> None:
    """Worker loop: receive a task, scan it, send its payload back.

    A message is ``(task_id, (shard, qidxs), ctx)``, where ``ctx`` is
    the batch context on the first task of a batch this worker is
    handed and None on the rest; ``None`` stops the worker. The shared
    layout is re-attached only when its segment names move, the
    threshold board once per batch.
    """
    _pin_to_own_cpu(worker_id)
    layout: SharedShardPackedBase | None = None
    # Attachment cache key: (base shm name, overlay shm name). Every
    # overlay sync publishes under a fresh name, so a key change is
    # exactly "the data plane moved" — re-attach (re-mmap, no copy).
    layout_key: "tuple[str, str | None] | None" = None
    board: _SharedVector | None = None
    ctx: dict | None = None
    task_ordinal = 0  # lifetime tasks started by this worker slot
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                break
            task_id, (shard, qidxs), batch_ctx = msg
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
                    if board is not None:
                        board.destroy()
                        board = None
                    board = _SharedVector.attach(ctx["thresholds"])
                delay = apply_task_chaos(ctx["chaos"], worker_id, task_ordinal)
                task_ordinal += 1
                t0 = time.perf_counter()
                payload, reranked = _scan_task(
                    layout, plan, metric, ctx, shard, qidxs, board.array
                )
                t1 = time.perf_counter()
                sleep_for_delay(delay, t1 - t0)
                conn.send(("done", task_id, payload, reranked, t0, t1))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    finally:
        if board is not None:
            board.destroy()
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
        start_method: multiprocessing start method; default prefers
            ``fork`` (cheap startup) and falls back to ``spawn``.
        **options: every other keyword of
            :class:`~repro.core.executor.base.HostBackend`
            (``batch_queries``, ``degraded_mode`` and the kernel's
            own). The packed layout *is* the shared data plane.

    The pool starts lazily on the first ``search()`` and persists
    across calls; call :meth:`close` (or use the backend as a context
    manager) to release processes and shared segments.

    A worker that dies mid-batch is *supervised around*: the task it
    held goes back to the front of the pending list, the worker is
    respawned, and the batch completes on the pool with byte-identical
    results — :attr:`fallback_active` stays False. A slow worker needs
    no supervision: it asks for work less often, so it is handed less.
    Only losing the pool (every worker dead, shared memory gone, a
    worker error, a task that keeps killing its holders) flips
    execution to the serial loop, which still returns the same bytes.
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
        super().__init__(index, plan=plan, **options)
        self.n_workers = (
            int(n_workers) if n_workers is not None
            else max(1, os.cpu_count() or 1)
        )
        self._start_method = start_method
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

    # -- scheduling -----------------------------------------------------

    def _make_tasks(
        self, groups: "dict[int, list]"
    ) -> "list[tuple[int, tuple[int, ...]]]":
        """Shard-major (query-group, shard) task table.

        Batched mode splits each shard's query group into chunks so
        the table holds ~:data:`TASKS_PER_WORKER` tasks per worker —
        enough granularity for a slow worker to be handed less.
        Per-query mode emits one task per (query, shard); both are
        query-disjoint, so the split can never change results.
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

    # -- search ---------------------------------------------------------

    def _map(self, fn, nq: int) -> None:
        """The fallback's per-query loop: serial, like the oracle's."""
        for i in range(nq):
            fn(i)

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
            board = _SharedVector.create(
                np.array([s.heap.threshold for s in states], dtype=np.float64)
            )
            query_norms = None
            if states[0].query_norms is not None:
                query_norms = np.stack([s.query_norms for s in states])
            ctx = {
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
                self._run_tasks(tasks, ctx, states, board, allowed, local_cov)
            except BaseException:
                # Tasks may still be in flight; their results must never
                # reach the next batch's merge.
                self._teardown_pool()
                raise
            finally:
                board.destroy()
        if local_cov is not None:
            coverage += local_cov
        kernel.count_skipped_scans(skipped)
        return collect_results([state.heap for state in states], k)

    def _run_tasks(
        self, tasks, ctx, states, board, allowed, local_cov
    ) -> None:
        """Hand out every task and merge every result, surviving deaths.

        ``pending`` is a stack (its end is the front of the line), and
        ``held`` maps each busy worker to the one task it holds. While
        tasks are pending every live worker holds one, so the loop
        waits only on busy workers' pipes and sentinels. A task is in
        flight at one worker at a time and leaves ``held`` once —
        merged, put back after its holder died, or abandoned — so no
        result can merge twice.
        """
        kernel = self.kernel
        tracer = self.tracer
        pending = list(range(len(tasks)))[::-1]
        held: dict[int, int] = {}
        briefed: set[int] = set()  # workers holding this batch's ctx
        deaths = [0] * len(tasks)

        def hand_out(wid: int) -> None:
            if not pending:
                return
            task_id = pending.pop()
            held[wid] = task_id
            batch_ctx = None
            if wid not in briefed:
                briefed.add(wid)
                chaos = self.chaos
                batch_ctx = dict(
                    ctx, chaos=None if chaos is None else chaos.process_spec()
                )
            try:
                self._conns[wid].send((task_id, tasks[task_id], batch_ctx))
            except OSError:
                pass  # it died; its sentinel puts the task back

        def take(wid: int, msg, alive: bool) -> None:
            if msg[0] == "error":
                raise ProcessPoolError(f"worker {wid} failed:\n{msg[1]}")
            _, task_id, payload, reranked, t0, t1 = msg
            del held[wid]
            if alive:
                hand_out(wid)  # the next scan overlaps this merge
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
                    worker=wid, shard=int(tasks[task_id][0]),
                    queries=len(payload),
                )

        def bury(wid: int) -> None:
            """Drain dead worker ``wid``'s pipe and put back its task."""
            conn = self._conns[wid]
            try:
                while conn.poll():
                    take(wid, conn.recv(), alive=False)
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
                        "task-requeue", "fault",
                        node=PROCESS_LANE_BASE + wid,
                        start=now, end=now, tasks=1,
                    )
                return
            if local_cov is None:
                raise ProcessPoolError(
                    f"task {task_id} killed {deaths[task_id]} workers"
                )
            self.fault_counters.abandoned_scans += 1
            shard, qidxs = tasks[task_id]
            for q in qidxs:
                local_cov[q, 1] += kernel.count_candidates(
                    states[q], shard, allowed
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
                    take(wid, msg, alive=True)
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
