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

Fault story (host-path robustness): an attached
:class:`~repro.cluster.host_faults.HostFaultInjector` can delay tasks
(straggler emulation) or kill them at entry. An injected kill fires
*before* the task touches any shared state, so the task is simply run
again — the thread-pool analogue of the process backend's
requeue-and-respawn — and each kill rule is one-shot, so the re-runs
end. A delayed task holds its pool thread for longer; nothing races
it, because a duplicate on the same pool would compete for the very
cores the straggler is short of.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cluster.host_faults import sleep_for_delay
from repro.core.executor.base import HostBackend
from repro.core.partition import PartitionPlan


class ThreadBackend(HostBackend):
    """Multithreaded HARMONY-style pruned search on the host machine.

    Args:
        index: trained+populated IVF index.
        plan: partition plan; defaults to a single-shard plan with 4
            dimension slices (pruning-friendly).
        n_threads: worker threads (default: ``ThreadPoolExecutor``'s).
        **options: every other keyword of :class:`HostBackend`
            (``batch_queries``, ``degraded_mode`` and the kernel's own).

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

    # -- chaos ---------------------------------------------------------

    def _chaos_wrap(self, fn):
        """Wrap a task callable with chaos injection.

        Injected kills fire at task entry (before any shared state is
        touched), so re-running the task is always safe; each re-run is
        counted as a requeue, and ends because a kill rule fires once.
        Delays time the task body and stretch it by the injected
        straggler factor.
        """
        chaos = self.chaos
        if chaos is None:
            return fn

        def wrapped(arg):
            delay, kill = chaos.thread_task_event()
            while kill:  # the task body never started: run it again
                self.fault_counters.tasks_requeued += 1
                delay, kill = chaos.thread_task_event()
            t0 = time.perf_counter()
            out = fn(arg)
            sleep_for_delay(delay, time.perf_counter() - t0)
            return out

        return wrapped

    def _map(self, fn, nq: int) -> None:
        pool = self._ensure_thread_pool()
        list(pool.map(self._chaos_wrap(fn), range(nq)))

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
