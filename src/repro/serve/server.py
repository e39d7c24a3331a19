"""Work-conserving micro-batch coalescing server.

The serving state machine (per pending request):

1. **submit** — admission control runs under the queue lock. Below
   ``queue_depth`` the request is appended to the pending deque and the
   flusher is woken. At or above depth the server's ``shed_policy``
   decides: ``reject`` fails the *new* request, ``shed_oldest`` evicts
   the head (oldest waiter) to make room, ``degrade_nprobe`` admits up
   to ``2 x queue_depth`` requests flagged for half-``nprobe`` service
   and sheds the oldest beyond that hard cap.
2. **coalesce** — the flusher thread sleeps on one condition only:
   nothing is pending (or the server is paused). The moment it is free
   and something is pending it takes the head-compatible run of the
   queue, up to ``max_batch``, so a request queues only while the
   previous batch is running and a batch is whatever arrived during
   that run — one or two requests at low load, ``max_batch`` at
   overload. No timer, nothing to tune: the load sets the batch size.
3. **execute** — the batch (requests sharing a ``(k, nprobe,
   degraded)`` compatibility key, popped head-first) is stacked into
   one query matrix and run through ``HarmonyDB.search``, which
   dispatches to the fused ``ScanKernel.search_batch`` on whichever
   backend the deployment uses. Results are row-sliced back onto each
   request's future as a :class:`ServeResponse`.

Batches mix freely across callers but never across incompatible
parameters, so every response is byte-identical to a per-query serial
execution at the response's ``nprobe_used`` — the backend-equivalence
contract extends to the serving layer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.core.executor.base import check_k
from repro.index.ivf import check_vectors

SERVE_LANE = 3000
"""Trace lane for serve-layer batch spans.

Host threads occupy lanes ``HOST_LANE_BASE + i`` (1000+); the
serving layer records its per-batch spans on a dedicated lane well
above them so batch boundaries read as their own track in the Chrome
trace viewer.
"""

BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Load-shedding policies; hyphens normalize, so ``degrade-nprobe`` works.
SHED_POLICIES = ("reject", "shed_oldest", "degrade_nprobe")


class AdmissionError(RuntimeError):
    """Base class for admission-control failures set on request futures."""


class RequestRejected(AdmissionError):
    """The queue was full and ``shed_policy="reject"`` refused the request."""


class RequestShed(AdmissionError):
    """The request was evicted from the queue to admit newer traffic."""


class ServerClosed(RuntimeError):
    """``submit`` was called on a closed (or closing) server."""


@dataclass(frozen=True)
class ServeResponse:
    """One request's answer plus its serving-latency breakdown.

    Attributes:
        ids: ``(k,)`` global vector ids, padded with ``-1``.
        distances: ``(k,)`` ascending scores, padded with ``+inf``.
        k: requested neighbor count.
        nprobe_used: the nprobe the batch actually ran at (halved from
            the requested value when ``degraded`` is set).
        degraded: True when admission control admitted this request
            over ``queue_depth`` under ``degrade_nprobe`` and served it
            at reduced nprobe.
        queue_seconds: time spent waiting in the coalescing buffer.
        service_seconds: wall-clock of the batch search this request
            rode in.
        batch_size: how many requests shared that batch.
        cache_hit: True when the answer came straight from the
            deployment's result cache at submit time — the request
            never entered the coalescing queue, so admission control
            and the SLO machinery never saw it (``queue_seconds`` is
            exactly ``0.0``).
    """

    ids: np.ndarray
    distances: np.ndarray
    k: int
    nprobe_used: int
    degraded: bool
    queue_seconds: float
    service_seconds: float
    batch_size: int
    cache_hit: bool = False

    @property
    def e2e_seconds(self) -> float:
        """End-to-end latency: queue wait plus batch service."""
        return self.queue_seconds + self.service_seconds


@dataclass
class ServeStats:
    """Cumulative serving counters (single server instance).

    ``submitted == completed + rejected + shed + failed`` once the
    queue is drained — admission control accounts for every request.
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    shed: int = 0
    degraded: int = 0
    failed: int = 0
    batches: int = 0
    max_queue_depth: int = 0
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    slo_violations: int = 0
    cache_hits: int = 0

    @property
    def mean_batch_size(self) -> float:
        if self.batches == 0:
            return 0.0
        return self.completed / self.batches

    def to_dict(self) -> dict:
        """The declared counters plus the derived ``mean_batch_size``."""
        return {**vars(self), "mean_batch_size": self.mean_batch_size}


@dataclass
class _Request:
    query: np.ndarray
    k: int
    nprobe: int
    degraded: bool
    future: Future = field(default_factory=Future)
    t_submit: float = 0.0

    @property
    def batch_key(self) -> tuple:
        return (self.k, self.nprobe, self.degraded)


class HarmonyServer:
    """Coalescing front end over one built :class:`HarmonyDB`.

    Thread-safe: any number of caller threads may ``submit``
    concurrently; a single internal flusher thread owns batch
    execution, so the underlying backend never sees concurrent
    searches from the server. The flusher is work-conserving: it
    dispatches whatever is pending the moment the previous batch
    returns and never holds a request back for batch-mates. Async
    callers use :meth:`asubmit`.

    Construct via :meth:`repro.core.database.HarmonyDB.serve`; it
    publishes to the deployment's metrics registry, if any. ``slo_ms``
    only counts ``slo_violations``; the module docstring covers the rest.
    """

    def __init__(
        self,
        db,
        max_batch: int = 32,
        slo_ms: float = 20.0,
        queue_depth: int = 256,
        shed_policy: str = "reject",
    ) -> None:
        for name, value in (("max_batch", max_batch), ("slo_ms", slo_ms),
                            ("queue_depth", queue_depth)):
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        self.shed_policy = str(shed_policy).lower().replace("-", "_")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed_policy {self.shed_policy!r}; supported "
                f"policies: {', '.join(sorted(SHED_POLICIES))}"
            )
        self.db = db
        self.max_batch = max_batch
        self.slo_ms = slo_ms
        self.queue_depth = queue_depth
        self.metrics = db.metrics
        self.stats = ServeStats()
        self.last_report = None
        self._pending: deque[_Request] = deque()
        self._cond = threading.Condition()
        self._paused = False
        self._closing = False
        self._closed = False
        self._thread = threading.Thread(
            target=self._flush_loop, name="harmony-serve-flusher", daemon=True
        )
        self._thread.start()

    @property
    def depth(self) -> int:
        """Current pending-queue depth (admitted, not yet dispatched)."""
        with self._cond:
            return len(self._pending)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self, query: np.ndarray, k: int = 10, nprobe: int | None = None
    ) -> Future:
        """Enqueue one query; returns a future of :class:`ServeResponse`.

        The future resolves when the request's micro-batch completes,
        or fails with :class:`RequestRejected` / :class:`RequestShed`
        when admission control drops it. Requests only coalesce with
        compatible ones (same ``k`` and effective ``nprobe``), so the
        response is byte-identical to a standalone
        ``db.search(query[None], k, nprobe)`` at ``nprobe_used``.

        Raises:
            ServerClosed: when called after :meth:`close`.
            ValueError: for malformed queries or parameters.
        """
        query = np.asarray(query, dtype=np.float32)
        if query.ndim == 2 and query.shape[0] == 1:
            query = query[0]
        if query.ndim != 1:
            raise ValueError(
                f"submit takes one query vector, got shape {query.shape}"
            )
        # Checked here, per request: a bad vector found when its batch
        # reaches HarmonyDB.search would fail every request batched
        # with it.
        check_vectors(query, self.db.index.dim)
        k = check_k(k)
        effective_nprobe = int(
            nprobe if nprobe is not None else self.db.config.nprobe
        )
        if effective_nprobe <= 0:
            raise ValueError(f"nprobe must be positive, got {nprobe}")
        if getattr(self.db, "result_cache", None) is not None:
            future = self._try_cache_fast_path(query, k, effective_nprobe)
            if future is not None:
                return future
        request = _Request(
            query=query, k=k, nprobe=effective_nprobe, degraded=False
        )
        shed_victim: _Request | None = None
        with self._cond:
            if self._closing:
                raise ServerClosed("submit() on a closed HarmonyServer")
            self.stats.submitted += 1
            self._count("harmony_serve_requests_total", "Requests submitted")
            depth = len(self._pending)
            if depth >= self.queue_depth:
                if self.shed_policy == "reject":
                    self.stats.rejected += 1
                    self._count(
                        "harmony_serve_rejected_total",
                        "Requests rejected at admission (queue full)",
                    )
                    request.future.set_exception(
                        RequestRejected(
                            f"queue full ({depth} pending >= depth "
                            f"{self.queue_depth})"
                        )
                    )
                    return request.future
                if self.shed_policy == "shed_oldest" or (
                    depth >= 2 * self.queue_depth
                ):
                    # degrade_nprobe hard-caps at twice the configured
                    # depth; beyond it the oldest waiter is shed.
                    shed_victim = self._pending.popleft()
                    self.stats.shed += 1
                    self._count(
                        "harmony_serve_shed_total",
                        "Queued requests evicted to admit newer traffic",
                    )
                if self.shed_policy == "degrade_nprobe":
                    request.degraded = True
                    request.nprobe = max(1, request.nprobe // 2)
                    self.stats.degraded += 1
                    self._count(
                        "harmony_serve_degraded_total",
                        "Requests admitted over depth at reduced nprobe",
                    )
            request.t_submit = time.perf_counter()
            self._pending.append(request)
            new_depth = len(self._pending)
            self.stats.max_queue_depth = max(
                self.stats.max_queue_depth, new_depth
            )
            if self.metrics is not None:
                self._gauge(
                    "harmony_serve_queue_depth",
                    "Pending coalescing-queue depth",
                ).set(float(new_depth))
            self._cond.notify_all()
        if shed_victim is not None:
            shed_victim.future.set_exception(
                RequestShed("evicted from the queue to admit newer traffic")
            )
        return request.future

    def _try_cache_fast_path(
        self, query: np.ndarray, k: int, nprobe: int
    ) -> "Future | None":
        """Resolve the request from the result cache before enqueueing.

        A hit returns an already-resolved future: the request never
        enters the pending queue, so it can neither be rejected nor
        shed, never waits behind a running batch, and reports
        ``queue_seconds == 0``. A miss (or probe failure) returns None
        and the request takes the normal admission path — the miss is
        not counted here; the authoritative cache lookup happens when
        the batch flows through ``HarmonyDB.search``.
        """
        t_probe = time.perf_counter()
        try:
            hit = self.db.cache_probe(query, k=k, nprobe=nprobe)
        except Exception:
            return None
        if hit is None:
            return None
        service = time.perf_counter() - t_probe
        with self._cond:
            if self._closing:
                raise ServerClosed("submit() on a closed HarmonyServer")
            self.stats.submitted += 1
            self._count("harmony_serve_requests_total", "Requests submitted")
            self.stats.completed += 1
            self.stats.cache_hits += 1
            self._count(
                "harmony_serve_cache_hits_total",
                "Requests answered from the result cache at submit",
            )
        future: Future = Future()
        future.set_result(
            ServeResponse(
                ids=hit.ids,
                distances=hit.distances,
                k=k,
                nprobe_used=nprobe,
                degraded=False,
                queue_seconds=0.0,
                service_seconds=float(service),
                batch_size=1,
                cache_hit=True,
            )
        )
        return future

    async def asubmit(
        self, query: np.ndarray, k: int = 10, nprobe: int | None = None
    ):
        """Asyncio facade over :meth:`submit`.

        Awaits the request's future without blocking the event loop;
        admission failures surface as the same exceptions ``submit``
        sets. Safe to call from many coroutines — the thread-safe queue
        core does the coalescing.
        """
        import asyncio

        return await asyncio.wrap_future(self.submit(query, k=k, nprobe=nprobe))

    # ------------------------------------------------------------------
    # Flow control (primarily for tests and controlled experiments)
    # ------------------------------------------------------------------

    def pause(self) -> None:
        """Stop dispatching batches; submissions keep queueing."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        """Resume dispatching after :meth:`pause`."""
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, timeout: float | None = 30.0) -> None:
        """Drain pending requests, stop the flusher, reject new work.

        Idempotent. Pending requests are still executed (a paused
        server is resumed to drain them); only *new* submissions fail
        with :class:`ServerClosed`.
        """
        with self._cond:
            if self._closed:
                return
            self._closing = True
            self._paused = False
            self._cond.notify_all()
        self._thread.join(timeout)
        self._closed = True

    def __enter__(self) -> "HarmonyServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Flusher
    # ------------------------------------------------------------------

    def _take_batch(self) -> "list[_Request]":
        """Pop the head-compatible run, FIFO, capped at ``max_batch``."""
        batch: list[_Request] = []
        key = self._pending[0].batch_key
        while (
            self._pending
            and len(batch) < self.max_batch
            and self._pending[0].batch_key == key
        ):
            batch.append(self._pending.popleft())
        return batch

    def _flush_loop(self) -> None:
        while True:
            with self._cond:
                # The one wait: nothing to run, or told not to run it
                # (a closing server ignores the pause and drains).
                while not self._pending or (
                    self._paused and not self._closing
                ):
                    if self._closing:
                        return
                    self._cond.wait()
                batch = self._take_batch()
                if self.metrics is not None:
                    self._gauge(
                        "harmony_serve_queue_depth",
                        "Pending coalescing-queue depth",
                    ).set(float(len(self._pending)))
            self._execute(batch)

    def _execute(self, batch: "list[_Request]") -> None:
        """Run one batch, never letting a failure kill the flusher.

        Any exception — batch assembly, dispatch, or the search
        itself — fails only *this batch's* unresolved futures (counted
        in ``ServeStats.failed``); the flusher thread survives to
        serve the next batch.
        """
        try:
            self._execute_batch(batch)
        except BaseException as exc:  # noqa: BLE001 - forwarded to callers
            unresolved = [r for r in batch if not r.future.done()]
            self.stats.failed += len(unresolved)
            self._count(
                "harmony_serve_failed_total",
                "Requests failed by batch-execution errors",
                n=len(unresolved),
            )
            for request in unresolved:
                request.future.set_exception(exc)

    def _execute_batch(self, batch: "list[_Request]") -> None:
        queries = np.stack([request.query for request in batch])
        k = batch[0].k
        nprobe = batch[0].nprobe
        degraded = batch[0].degraded
        t_start = time.perf_counter()
        result, report = self.db.search(queries, k=k, nprobe=nprobe)
        t_end = time.perf_counter()
        service = t_end - t_start
        queue_waits = np.array(
            [t_start - request.t_submit for request in batch],
            dtype=np.float64,
        )
        # Satellite fix: the batch report's latency distribution is the
        # per-request end-to-end (queue wait + service) latency, not a
        # single batch wall-time sample, so report.qps / percentiles
        # describe what callers observed.
        report.latencies = queue_waits + service
        report.queue_seconds = float(queue_waits.sum())
        self.last_report = report
        self.stats.batches += 1
        self.stats.completed += len(batch)
        self.stats.queue_seconds += float(queue_waits.sum())
        self.stats.service_seconds += service
        tracer = self.db.tracer
        if tracer is not None:
            # Recorded after the search: HarmonyDB.search clears the
            # tracer per batch (one trace per batch), so the serve span
            # must land once the backend's own spans are in place.
            tracer.record(
                "serve-batch",
                "other",
                SERVE_LANE,
                t_start,
                t_end,
                batch=len(batch),
                k=k,
                nprobe=nprobe,
                degraded=int(degraded),
            )
        slo_seconds = self.slo_ms / 1000.0
        if self.metrics is not None:
            self._count(
                "harmony_serve_batches_total", "Micro-batches executed"
            )
            self._histogram(
                "harmony_serve_batch_size",
                "Requests coalesced per executed batch",
                buckets=BATCH_SIZE_BUCKETS,
            ).observe(float(len(batch)))
            service_hist = self._histogram(
                "harmony_serve_service_seconds",
                "Batch search wall-clock seconds",
            )
            service_hist.observe(service)
            queue_hist = self._histogram(
                "harmony_serve_queue_wait_seconds",
                "Per-request coalescing queue wait seconds",
            )
            e2e_hist = self._histogram(
                "harmony_serve_e2e_latency_seconds",
                "Per-request end-to-end (queue + service) seconds",
            )
            for wait in queue_waits:
                queue_hist.observe(float(wait))
                e2e_hist.observe(float(wait) + service)
        for i, request in enumerate(batch):
            e2e = float(queue_waits[i]) + service
            if e2e > slo_seconds:
                self.stats.slo_violations += 1
                self._count(
                    "harmony_serve_slo_violations_total",
                    "Requests whose e2e latency exceeded slo_ms",
                )
            request.future.set_result(
                ServeResponse(
                    ids=result.ids[i],
                    distances=result.distances[i],
                    k=k,
                    nprobe_used=nprobe,
                    degraded=degraded,
                    queue_seconds=float(queue_waits[i]),
                    service_seconds=service,
                    batch_size=len(batch),
                )
            )

    # ------------------------------------------------------------------
    # Metrics plumbing
    # ------------------------------------------------------------------

    def _count(self, name: str, help: str, n: int = 1) -> None:
        if self.metrics is not None and n > 0:
            self.metrics.counter(name, help).inc(float(n))

    def _gauge(self, name: str, help: str):
        return self.metrics.gauge(name, help)

    def _histogram(self, name: str, help: str, buckets: tuple | None = None):
        return self.metrics.histogram(name, help, buckets=buckets)
