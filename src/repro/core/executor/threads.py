"""Thread backend: real host parallelism (no simulation).

In the batched path the unit of parallelism is a *shard-group* — all
queries touching one vector shard, processed as fused matrix-matrix
stages — so threads scale with the plan's shard count while each
stage stays a large GIL-releasing numpy call. Per-query heap merges
are serialized by the kernel's per-query locks; stale (looser)
threshold reads under concurrency only prune less, never wrongly,
because the pruning bound is lossless. In the per-query path
(``batch_queries=False`` or single-query batches) queries themselves
fan out across the pool. Results are byte-identical to the serial
backend regardless of thread count — that invariance, not raw speed,
is the contract this class is tested on.

The pool is created lazily on first use and reused across ``search()``
calls (constructing a ``ThreadPoolExecutor`` per call costs thread
spawns on every query batch); :meth:`ThreadBackend.close` releases it,
and a closed backend transparently re-creates the pool if searched
again.

Fault story (host-path robustness):

- With ``scan_timeout`` set, the per-query path supervises each query
  task through a future: a task that exceeds the (exponentially
  escalating) timeout is **hedged** — re-submitted to the pool — and
  whichever copy finishes first wins. ``kernel.search_one`` is pure
  (it builds a fresh heap, mutating no shared state), so a duplicate
  run computes the identical heap and the race is benign: results
  stay byte-identical.
- An attached :class:`~repro.cluster.host_faults.HostFaultInjector`
  can delay tasks (straggler emulation) or kill them at entry
  (:class:`~repro.cluster.host_faults.InjectedWorkerKill`); injected
  kills fire *before* any shared state is touched, so the supervisor
  simply re-runs the task — the thread-pool analogue of the process
  backend's requeue-and-respawn.
- The batched shard-group path supports delay and entry-kill
  injection (retried the same way) but not timeout hedging: group
  tasks merge into shared per-query heaps mid-flight, so duplicating
  one would double-push candidates. Straggler *hedging* therefore
  needs ``batch_queries=False`` or the process backend, whose tasks
  are hedge-safe by construction.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

from repro.cluster.host_faults import InjectedWorkerKill, sleep_for_delay
from repro.core.executor.base import HostBackend
from repro.core.partition import PartitionPlan
from repro.util.retry import backoff_delay


class ThreadBackend(HostBackend):
    """Multithreaded HARMONY-style pruned search on the host machine.

    Args:
        index: trained+populated IVF index.
        plan: partition plan; defaults to a single-shard plan with 4
            dimension slices (pruning-friendly).
        n_threads: worker threads (default: ``ThreadPoolExecutor``'s).
        **options: every other keyword of :class:`HostBackend`
            (``batch_queries``, ``scan_timeout`` / ``scan_retries`` —
            the straggler watchdog — and the kernel's own).

    With a ``tracer`` attached (see :class:`HostBackend`), wall-clock
    spans land on one lane per pool thread, so the exported timeline
    shows the actual shard-group / query interleaving across threads.
    """

    name = "thread"

    def __init__(
        self,
        index: "IVFFlatIndex",
        plan: PartitionPlan | None = None,
        n_threads: int | None = None,
        **options,
    ) -> None:
        if n_threads is not None and n_threads <= 0:
            raise ValueError(f"n_threads must be positive, got {n_threads}")
        super().__init__(index, plan=plan, **options)
        self.n_threads = n_threads
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _ensure_thread_pool(self) -> ThreadPoolExecutor:
        """The persistent pool, created lazily and revived after close."""
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = ThreadPoolExecutor(max_workers=self.n_threads)
                    self._pool = pool
        return pool

    def close(self) -> None:
        """Shut the worker pool down. Idempotent; search() revives it."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        super().close()

    # -- chaos + supervision --------------------------------------------

    def _chaos_wrap(self, fn):
        """Wrap a task callable with chaos injection + kill retry.

        Injected kills fire at task entry (before any shared state is
        touched), so re-running the task is always safe; each retry is
        counted as a requeue. Delays time the task body and stretch it
        by the injected straggler factor.
        """
        chaos = self.chaos
        if chaos is None:
            return fn

        def wrapped(arg):
            for _ in range(self.scan_retries + 1):
                delay, kill = chaos.thread_task_event()
                if kill:
                    self.fault_counters.tasks_requeued += 1
                    continue  # re-run: the task body never started
                t0 = time.perf_counter()
                out = fn(arg)
                sleep_for_delay(delay, time.perf_counter() - t0)
                return out
            raise InjectedWorkerKill(
                "chaos kill kept firing beyond scan_retries"
            )

        return wrapped

    def _map(self, fn, nq: int) -> None:
        pool = self._ensure_thread_pool()
        fn = self._chaos_wrap(fn)
        if self.scan_timeout is None:
            list(pool.map(fn, range(nq)))
            return
        self._map_hedged(pool, fn, nq)

    def _map_hedged(self, pool, fn, nq: int) -> None:
        """Per-query supervision: hedge stragglers past the timeout.

        ``fn(i)`` must be idempotent — on this path it is
        ``kernel.search_one`` writing its (deterministic) heap into
        ``heaps[i]`` — so racing duplicates are benign. A pool thread
        cannot be killed, so after ``scan_retries`` hedges the
        supervisor simply keeps waiting on every copy; the hedges
        bound straggler latency, not worst-case work.
        """
        outstanding: dict[int, list] = {
            i: [pool.submit(fn, i)] for i in range(nq)
        }
        attempts = {i: 0 for i in range(nq)}
        errors: list[BaseException] = []
        while outstanding:
            running = [f for futs in outstanding.values() for f in futs]
            min_attempt = min(attempts[i] for i in outstanding)
            timeout = None
            if min_attempt <= self.scan_retries:
                timeout = backoff_delay(min_attempt, self.scan_timeout)
            done, _ = wait(running, timeout=timeout, return_when=FIRST_COMPLETED)
            progressed = False
            for i in list(outstanding):
                futs = outstanding[i]
                finished = [f for f in futs if f.done()]
                if finished:
                    progressed = True
                    exc = None
                    for f in finished:
                        exc = f.exception()
                        if exc is None:
                            break
                    if exc is not None and len(finished) == len(futs):
                        errors.append(exc)
                    elif exc is not None:
                        continue  # a live hedge may still succeed
                    del outstanding[i]
            if progressed or not outstanding:
                continue
            # Timeout tick: hedge every straggler that still has
            # attempts left; results are idempotent so the duplicate
            # is free of correctness risk.
            for i in list(outstanding):
                if attempts[i] < self.scan_retries:
                    attempts[i] += 1
                    self.fault_counters.scan_timeouts += 1
                    outstanding[i].append(pool.submit(fn, i))
                else:
                    attempts[i] += 1  # stop rearming the wait timeout
        if errors:
            raise errors[0]

    def _group_mapper(self):
        def run(task, shards) -> None:
            pool = self._ensure_thread_pool()
            futures = [
                pool.submit(self._chaos_wrap(task), shard)
                for shard in shards
            ]
            errors = []
            for future in futures:
                exc = future.exception()
                if exc is not None:
                    errors.append(exc)
            if errors:
                raise errors[0]

        return run
