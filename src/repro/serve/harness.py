"""Open-loop / closed-loop serving load harness.

Methodology (the serving-systems standard the paper's throughput
claims assume):

- **closed loop, unbatched** (:func:`run_sequential`): one request in
  flight at a time, next request issued when the previous returns.
  Measures the per-request service floor and the baseline QPS a
  naive caller achieves.
- **open loop** (:func:`run_open_loop`): requests arrive on a wall
  clock schedule (Poisson or bursty, from
  :mod:`repro.workload.generators`) regardless of completions, as
  real traffic does. Under saturation the coalescing server's queue
  fills, batches deepen, and sustained throughput rises toward the
  fused ``search_batch`` ceiling — the win this harness quantifies.

Every completed response is checkable against a per-query *serial
oracle* (:func:`make_serial_oracle`): byte-identical ids and distances
at the response's ``nprobe_used``, extending the repo's
backend-equivalence contract through the serving layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.server import (
    AdmissionError,
    HarmonyServer,
    RequestShed,
    ServeResponse,
)


def make_serial_oracle(db):
    """Per-query serial reference executor for byte-identity checks.

    Builds a :class:`~repro.core.executor.serial.SerialBackend` over
    the database's live index and plan (same pruning / prewarm / scan
    precision settings) and returns ``oracle(query, k, nprobe) ->
    (ids, distances)`` running one query at a time — the ground truth
    any batched, coalesced, or degraded-admission execution must match
    exactly at the same effective nprobe.
    """
    from repro.core.executor.serial import SerialBackend

    backend = SerialBackend(
        db.index,
        plan=db.plan,
        batch_queries=False,
        **db.config.kernel_options(),
    )

    def oracle(query, k: int, nprobe: int):
        query = np.asarray(query, dtype=np.float32).reshape(1, -1)
        result = backend.search(query, k=k, nprobe=nprobe)
        return result.ids[0], result.distances[0]

    return oracle


def verify_against_oracle(responses, queries, oracle) -> "list[int]":
    """Indices of completed responses that mismatch the serial oracle.

    Admission failures (rejected / shed entries) are skipped — only
    answers actually returned to callers are held to byte identity.
    Degraded responses are checked at their reduced ``nprobe_used``:
    degraded service changes *which* question is answered, never the
    exactness of the answer.
    """
    mismatches: list[int] = []
    for i, response in enumerate(responses):
        if not isinstance(response, ServeResponse):
            continue
        ids, distances = oracle(queries[i], response.k, response.nprobe_used)
        if not (
            np.array_equal(ids, response.ids)
            and np.array_equal(distances, response.distances)
        ):
            mismatches.append(i)
    return mismatches


def _percentile_ms(latencies: np.ndarray, percentile: float) -> float:
    if latencies.size == 0:
        return 0.0
    return float(np.percentile(latencies, percentile) * 1000.0)


@dataclass
class SequentialResult:
    """Closed-loop unbatched baseline measurements.

    Attributes:
        latencies: per-request wall seconds (service only — the closed
            loop never queues).
        elapsed_seconds: total wall time for the sweep.
        ids / distances: per-request answers, for oracle checks.
    """

    latencies: np.ndarray
    elapsed_seconds: float
    ids: "list[np.ndarray]" = field(default_factory=list)
    distances: "list[np.ndarray]" = field(default_factory=list)

    @property
    def qps(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return len(self.latencies) / self.elapsed_seconds

    def percentile_ms(self, percentile: float) -> float:
        return _percentile_ms(self.latencies, percentile)

    def to_dict(self) -> dict:
        return {
            "mode": "closed-loop-unbatched",
            "n_requests": int(self.latencies.size),
            "qps": self.qps,
            "mean_ms": float(self.latencies.mean() * 1000.0)
            if self.latencies.size
            else 0.0,
            "p50_ms": self.percentile_ms(50),
            "p99_ms": self.percentile_ms(99),
        }


@dataclass
class OpenLoopResult:
    """Open-loop replay measurements for one (rate, policy) cell.

    Attributes:
        responses: per-request outcome aligned with the submitted
            queries — a :class:`ServeResponse`, or the
            :class:`AdmissionError` instance for dropped requests.
        latencies: e2e seconds of *admitted-and-completed* requests.
        offered_qps: the schedule's average arrival rate.
        duration_seconds: first submit to last resolution.
    """

    responses: list
    latencies: np.ndarray
    offered_qps: float
    duration_seconds: float
    completed: int = 0
    rejected: int = 0
    shed: int = 0
    degraded: int = 0

    @property
    def n_requests(self) -> int:
        return len(self.responses)

    @property
    def sustained_qps(self) -> float:
        """Completed requests per wall second — the throughput metric."""
        if self.duration_seconds <= 0.0:
            return 0.0
        return self.completed / self.duration_seconds

    @property
    def accounted(self) -> bool:
        """Admission control accounts for every submitted request."""
        return self.completed + self.rejected + self.shed == self.n_requests

    def percentile_ms(self, percentile: float) -> float:
        return _percentile_ms(self.latencies, percentile)

    def _completed(self, attribute: str) -> np.ndarray:
        """One :class:`ServeResponse` field over the completed requests."""
        return np.array(
            [
                getattr(r, attribute) for r in self.responses
                if isinstance(r, ServeResponse)
            ],
            dtype=np.float64,
        )

    def mean_batch_size(self) -> float:
        sizes = self._completed("batch_size")
        return float(sizes.mean()) if sizes.size else 0.0

    def to_dict(self) -> dict:
        return {
            "mode": "open-loop-coalesced",
            "n_requests": self.n_requests,
            "offered_qps": float(self.offered_qps),
            "sustained_qps": self.sustained_qps,
            "duration_seconds": float(self.duration_seconds),
            "completed": self.completed,
            "rejected": self.rejected,
            "shed": self.shed,
            "degraded": self.degraded,
            "mean_batch_size": self.mean_batch_size(),
            "mean_ms": float(self.latencies.mean() * 1000.0)
            if self.latencies.size
            else 0.0,
            "p50_ms": self.percentile_ms(50),
            "p99_ms": self.percentile_ms(99),
            # Where a median request's time went: waiting for the
            # flusher, and inside the batch it rode.
            "queue_p50_ms": _percentile_ms(
                self._completed("queue_seconds"), 50
            ),
            "service_p50_ms": _percentile_ms(
                self._completed("service_seconds"), 50
            ),
        }


def run_sequential(
    db, queries: np.ndarray, k: int = 10, nprobe: int | None = None
) -> SequentialResult:
    """Closed-loop unbatched baseline: one ``db.search`` per query.

    This is what a caller gets without the serving layer — every
    request pays full dispatch, and the fused multi-query kernel path
    never engages.
    """
    queries = np.asarray(queries, dtype=np.float32)
    latencies = np.zeros(queries.shape[0], dtype=np.float64)
    ids: list[np.ndarray] = []
    distances: list[np.ndarray] = []
    t0 = time.perf_counter()
    for i in range(queries.shape[0]):
        t_start = time.perf_counter()
        result, _ = db.search(queries[i : i + 1], k=k, nprobe=nprobe)
        latencies[i] = time.perf_counter() - t_start
        ids.append(result.ids[0])
        distances.append(result.distances[0])
    elapsed = time.perf_counter() - t0
    return SequentialResult(
        latencies=latencies,
        elapsed_seconds=elapsed,
        ids=ids,
        distances=distances,
    )


def run_open_loop(
    server: HarmonyServer,
    queries: np.ndarray,
    arrivals: np.ndarray,
    k: int = 10,
    nprobe: int | None = None,
    timeout: float = 120.0,
) -> OpenLoopResult:
    """Replay an arrival schedule against a server on the wall clock.

    Sleeps to each arrival offset (submission never waits for
    completions — open loop), submits, then gathers every future.
    Admission drops are recorded, not raised; ``timeout`` bounds the
    wait for any single future and only trips on a wedged server.
    """
    queries = np.asarray(queries, dtype=np.float32)
    arrivals = np.asarray(arrivals, dtype=np.float64)
    if queries.shape[0] != arrivals.shape[0]:
        raise ValueError(
            f"queries ({queries.shape[0]}) and arrivals "
            f"({arrivals.shape[0]}) must align"
        )
    span = float(arrivals[-1] - arrivals[0]) if arrivals.size > 1 else 0.0
    offered = queries.shape[0] / span if span > 0 else float(queries.shape[0])
    futures = []
    t0 = time.perf_counter()
    for i in range(queries.shape[0]):
        lag = (arrivals[i] - arrivals[0]) - (time.perf_counter() - t0)
        if lag > 0:
            time.sleep(lag)
        futures.append(server.submit(queries[i], k=k, nprobe=nprobe))
    responses: list = []
    for future in futures:
        try:
            responses.append(future.result(timeout=timeout))
        except AdmissionError as exc:
            responses.append(exc)
    duration = time.perf_counter() - t0
    out = OpenLoopResult(
        responses=responses,
        latencies=np.array(
            [
                r.e2e_seconds
                for r in responses
                if isinstance(r, ServeResponse)
            ],
            dtype=np.float64,
        ),
        offered_qps=offered,
        duration_seconds=duration,
    )
    for response in responses:
        if isinstance(response, ServeResponse):
            out.completed += 1
            if response.degraded:
                out.degraded += 1
        elif isinstance(response, RequestShed):
            out.shed += 1
        else:
            out.rejected += 1
    return out


def throughput_study(
    db,
    queries: np.ndarray,
    k: int = 10,
    nprobe: int | None = None,
    fractions: "tuple[float, ...]" = (0.5, 1.0, 2.0),
    include_bursty: bool = True,
    seed: int = 0,
    verify: bool = True,
    **server_overrides,
) -> dict:
    """QPS vs latency: unbatched-sequential vs server-coalesced.

    Measures the closed-loop unbatched baseline, then replays open-loop
    Poisson schedules at ``fraction x baseline-QPS`` offered load (plus
    one bursty row at the saturating rate when ``include_bursty``),
    each against a fresh server. ``speedup_at_saturation`` is the
    headline number: sustained coalesced QPS at the highest offered
    fraction over the unbatched baseline QPS.

    The server rows default ``queue_depth`` to the request count so
    admission control never sheds here — shedding behavior has its own
    study (:func:`admission_study`). With ``verify=True`` every
    completed response is checked byte-identical to the serial oracle.
    """
    from repro.workload.generators import bursty_arrivals, poisson_arrivals

    queries = np.asarray(queries, dtype=np.float32)
    n = queries.shape[0]
    server_overrides.setdefault("queue_depth", n)
    sequential = run_sequential(db, queries, k=k, nprobe=nprobe)
    base_qps = max(sequential.qps, 1.0)
    oracle = make_serial_oracle(db) if verify else None
    mismatches = 0
    if oracle is not None:
        for i in range(n):
            ids, distances = oracle(
                queries[i], k, nprobe if nprobe is not None else db.config.nprobe
            )
            if not (
                np.array_equal(ids, sequential.ids[i])
                and np.array_equal(distances, sequential.distances[i])
            ):
                mismatches += 1
    rows = []
    schedules = [
        ("poisson", fraction, fraction * base_qps) for fraction in fractions
    ]
    if include_bursty and fractions:
        schedules.append(("bursty", max(fractions), max(fractions) * base_qps))
    for arrival_kind, fraction, rate in schedules:
        if arrival_kind == "bursty":
            arrivals = bursty_arrivals(n, rate, seed=seed)
        else:
            arrivals = poisson_arrivals(n, rate, seed=seed)
        server = db.serve(**server_overrides)
        try:
            open_loop = run_open_loop(
                server, queries, arrivals, k=k, nprobe=nprobe
            )
        finally:
            server.close()
        if oracle is not None:
            mismatches += len(
                verify_against_oracle(open_loop.responses, queries, oracle)
            )
        row = open_loop.to_dict()
        row["arrival"] = arrival_kind
        row["rate_fraction"] = float(fraction)
        row["speedup_vs_sequential"] = (
            open_loop.sustained_qps / base_qps if base_qps > 0 else 0.0
        )
        rows.append(row)
    saturating = [
        row
        for row in rows
        if row["arrival"] == "poisson"
        and row["rate_fraction"] == max(fractions)
    ]
    speedup = saturating[0]["speedup_vs_sequential"] if saturating else 0.0
    return {
        "sequential": sequential.to_dict(),
        "rows": rows,
        "speedup_at_saturation": float(speedup),
        "oracle_mismatches": int(mismatches),
    }


def admission_study(
    db,
    queries: np.ndarray,
    k: int = 10,
    nprobe: int | None = None,
    queue_depth: int = 16,
    overload_factor: float = 6.0,
    policies: "tuple[str, ...]" = (
        "reject",
        "shed_oldest",
        "degrade_nprobe",
    ),
    seed: int = 0,
    verify: bool = True,
    **server_overrides,
) -> "list[dict]":
    """Admission-control behavior under sustained overload.

    Replays a Poisson schedule at ``overload_factor`` times the
    measured *sequential* capacity against a deliberately small
    ``queue_depth``, once per shed policy. Coalescing itself roughly
    doubles capacity, so the default factor is set well past the
    coalesced ceiling — admission control only engages once the
    server genuinely cannot keep up. Each row reports the
    completed / rejected / shed / degraded split, whether accounting
    closed exactly, and the admitted-request p99 — which stays bounded
    by the queue (depth x batch service), not by the experiment
    length, precisely because excess load is dropped at the door.
    """
    from repro.workload.generators import poisson_arrivals

    queries = np.asarray(queries, dtype=np.float32)
    n = queries.shape[0]
    sequential = run_sequential(db, queries[: max(32, n // 4)], k=k, nprobe=nprobe)
    rate = max(sequential.qps, 1.0) * overload_factor
    arrivals = poisson_arrivals(n, rate, seed=seed)
    oracle = make_serial_oracle(db) if verify else None
    rows = []
    for policy in policies:
        server = db.serve(
            queue_depth=queue_depth, shed_policy=policy, **server_overrides
        )
        try:
            open_loop = run_open_loop(
                server, queries, arrivals, k=k, nprobe=nprobe
            )
            stats = server.stats.to_dict()
        finally:
            server.close()
        row = open_loop.to_dict()
        row["policy"] = policy
        row["queue_depth"] = int(queue_depth)
        row["overload_factor"] = float(overload_factor)
        row["accounted"] = bool(open_loop.accounted)
        row["max_queue_depth"] = stats["max_queue_depth"]
        row["oracle_mismatches"] = (
            len(verify_against_oracle(open_loop.responses, queries, oracle))
            if oracle is not None
            else 0
        )
        rows.append(row)
    return rows
