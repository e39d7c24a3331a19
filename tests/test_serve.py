"""Serving layer: coalescing, SLO accounting, admission control, plumbing."""

from __future__ import annotations

import asyncio
import itertools
import re
import time

import numpy as np
import pytest

from repro.core.config import HarmonyConfig
from repro.obs.metrics import report_metrics
from repro.serve import (
    SERVE_LANE,
    HarmonyServer,
    RequestRejected,
    RequestShed,
    ServerClosed,
)
from repro.serve.server import SHED_POLICIES
from repro.validation import make_serial_oracle, verify_against_oracle

from conftest import make_db


@pytest.fixture(scope="module")
def serve_db(request):
    """One serial-backend deployment shared by the serving tests."""
    from repro.data.synthetic import gaussian_blobs

    data = gaussian_blobs(1200, 32, n_blobs=10, cluster_std=0.4, seed=3)
    db = make_db(data, nlist=16, nprobe=4, backend="serial")
    request.addfinalizer(db.close)
    return db


@pytest.fixture
def serve_registry(serve_db):
    """A fresh registry on the shared deployment: the servers a test
    starts over it publish there. Detached after the test."""
    yield serve_db.attach_metrics()
    serve_db.detach_metrics()


@pytest.fixture(scope="module")
def serve_queries():
    from repro.data.synthetic import gaussian_blobs

    return gaussian_blobs(1264, 32, n_blobs=10, cluster_std=0.4, seed=3)[1200:]


def test_submit_matches_serial_oracle(serve_db, serve_queries):
    oracle = make_serial_oracle(serve_db)
    with serve_db.serve(max_batch=8) as server:
        futures = [server.submit(q, k=5) for q in serve_queries]
        responses = [f.result(timeout=30) for f in futures]
    assert verify_against_oracle(responses, serve_queries, oracle) == []
    for response in responses:
        assert response.ids.shape == (5,)
        assert response.distances.shape == (5,)
        assert not response.degraded
        assert response.nprobe_used == serve_db.config.nprobe
        assert response.e2e_seconds >= response.service_seconds


def test_full_batch_coalesces(serve_db, serve_queries):
    """A paused server accumulates requests into one full batch."""
    with serve_db.serve(max_batch=16, queue_depth=64) as server:
        server.pause()
        futures = [server.submit(q, k=3) for q in serve_queries[:16]]
        assert server.depth == 16
        server.resume()
        responses = [f.result(timeout=30) for f in futures]
    assert all(r.batch_size == 16 for r in responses)
    assert server.stats.batches == 1
    assert server.stats.completed == 16


def test_lone_request_is_dispatched_without_a_timer(serve_db, serve_queries):
    """An idle server runs a lone request at once: no SLO-derived wait."""
    serve_db.search(serve_queries[:1], k=3)  # executor built, not timed
    with serve_db.serve(max_batch=64, slo_ms=2000.0) as server:
        t0 = time.perf_counter()
        response = server.submit(serve_queries[0], k=3).result(timeout=30)
        elapsed = time.perf_counter() - t0
    assert response.batch_size == 1
    # A flush timer at any fraction of a 2 s SLO worth configuring
    # would hold the request far longer than this.
    assert elapsed < 0.25
    assert response.queue_seconds < 0.25


def test_backlog_drains_in_max_batch_runs(serve_db, serve_queries):
    """70 queued requests leave as batches of 32, 32, 6, in FIFO order."""
    queries = np.concatenate([serve_queries, serve_queries[:6]])
    with serve_db.serve(max_batch=32, queue_depth=128) as server:
        server.pause()
        futures = [server.submit(q, k=3) for q in queries]
        assert server.depth == 70
        server.resume()
        responses = [f.result(timeout=30) for f in futures]
    assert server.stats.batches == 3
    # Batch-mates share one service time, so runs of equal values in
    # submission order are the batches, in the order they were cut.
    runs = [
        len(list(group))
        for _, group in itertools.groupby(r.service_seconds for r in responses)
    ]
    assert runs == [32, 32, 6]
    assert [r.batch_size for r in responses] == [32] * 64 + [6] * 6
    oracle = make_serial_oracle(serve_db)
    assert verify_against_oracle(responses, queries, oracle) == []


def test_arrivals_during_a_batch_ride_the_next_one(
    serve_db, serve_queries, monkeypatch
):
    """Load, not a clock, sets batch size: what arrives while a batch
    runs is the next batch."""
    import threading

    real_search = serve_db.search
    started = threading.Event()
    release = threading.Event()

    def gated_search(*args, **kwargs):
        started.set()
        assert release.wait(timeout=30)
        return real_search(*args, **kwargs)

    monkeypatch.setattr(serve_db, "search", gated_search)
    with serve_db.serve(max_batch=32, slo_ms=2000.0) as server:
        first = server.submit(serve_queries[0], k=3)
        assert started.wait(timeout=30)  # batch one is running, alone
        during = [server.submit(q, k=3) for q in serve_queries[1:10]]
        assert server.depth == 9  # queued behind the running batch
        release.set()
        assert first.result(timeout=30).batch_size == 1
        responses = [f.result(timeout=30) for f in during]
    assert [r.batch_size for r in responses] == [9] * 9
    assert server.stats.batches == 2


def test_incompatible_requests_split_batches(serve_db, serve_queries):
    """Mixed k / nprobe submissions never share a batch."""
    with serve_db.serve(max_batch=32, queue_depth=64) as server:
        server.pause()
        futures = []
        for i, q in enumerate(serve_queries[:12]):
            k = 3 if i % 2 == 0 else 7
            futures.append(server.submit(q, k=k))
        server.resume()
        responses = [f.result(timeout=30) for f in futures]
    for i, response in enumerate(responses):
        assert response.k == (3 if i % 2 == 0 else 7)
        assert response.ids.shape == (response.k,)
    oracle = make_serial_oracle(serve_db)
    assert verify_against_oracle(responses, serve_queries[:12], oracle) == []
    # Alternating keys force single-request batches: the head run stops
    # at every boundary.
    assert server.stats.batches == 12


def test_reject_policy(serve_db, serve_queries):
    with serve_db.serve(
        max_batch=4, queue_depth=4, shed_policy="reject"
    ) as server:
        server.pause()
        futures = [server.submit(q, k=3) for q in serve_queries[:7]]
        assert server.depth == 4  # the excess three never entered
        server.resume()
        # The first four complete; the overflow three were rejected.
        for future in futures[:4]:
            assert future.result(timeout=30).ids.shape == (3,)
        for future in futures[4:]:
            with pytest.raises(RequestRejected):
                future.result(timeout=30)
    assert server.stats.rejected == 3
    assert server.stats.submitted == 7
    assert server.stats.completed == 4


def test_shed_oldest_policy(serve_db, serve_queries):
    with serve_db.serve(
        max_batch=4, queue_depth=4, shed_policy="shed_oldest"
    ) as server:
        server.pause()
        futures = [server.submit(q, k=3) for q in serve_queries[:6]]
        server.resume()
        # The two oldest were evicted to admit the two newest.
        for future in futures[:2]:
            with pytest.raises(RequestShed):
                future.result(timeout=30)
        for future in futures[2:]:
            assert future.result(timeout=30).ids.shape == (3,)
    assert server.stats.shed == 2
    assert server.stats.completed == 4


def test_degrade_nprobe_policy(serve_db, serve_queries):
    """Overload admissions run at half nprobe, flagged, still exact."""
    oracle = make_serial_oracle(serve_db)
    with serve_db.serve(
        max_batch=8, queue_depth=4, shed_policy="degrade_nprobe"
    ) as server:
        server.pause()
        futures = [server.submit(q, k=3) for q in serve_queries[:10]]
        assert server.depth == 8  # capped at 2 x queue_depth
        server.resume()
        responses = []
        for future in futures:
            try:
                responses.append(future.result(timeout=30))
            except RequestShed as exc:
                responses.append(exc)
    shed = [r for r in responses if isinstance(r, BaseException)]
    # Everything was admitted up to the 2x hard cap; beyond it the
    # oldest were shed.
    completed = []
    for future_result in responses:
        if not isinstance(future_result, BaseException):
            completed.append(future_result)
    assert server.stats.degraded == 6
    normal = [r for r in completed if not r.degraded]
    degraded = [r for r in completed if r.degraded]
    assert len(normal) + len(degraded) + len(shed) == 10
    assert all(
        r.nprobe_used == serve_db.config.nprobe // 2 for r in degraded
    )
    # Degraded answers are exact at their reduced nprobe.
    checkable = [
        (i, r)
        for i, r in enumerate(responses)
        if not isinstance(r, BaseException)
    ]
    indices = [i for i, _ in checkable]
    assert (
        verify_against_oracle(
            [r for _, r in checkable],
            serve_queries[:10][indices],
            oracle,
        )
        == []
    )


def test_degrade_hard_cap_sheds(serve_db, serve_queries):
    with serve_db.serve(
        max_batch=4, queue_depth=2, shed_policy="degrade_nprobe"
    ) as server:
        server.pause()
        futures = [server.submit(q, k=3) for q in serve_queries[:6]]
        assert server.depth == 4  # hard cap at 2 x queue_depth
        server.resume()
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result(timeout=30))
            except RequestShed:
                outcomes.append("shed")
    assert outcomes.count("shed") == 2
    assert server.stats.shed == 2
    assert server.stats.degraded == 4


def test_submit_after_close_raises(serve_db, serve_queries):
    server = serve_db.serve()
    future = server.submit(serve_queries[0], k=3)
    server.close()
    assert future.result(timeout=30).ids.shape == (3,)
    with pytest.raises(ServerClosed):
        server.submit(serve_queries[1], k=3)
    server.close()  # idempotent


def test_close_drains_pending(serve_db, serve_queries):
    server = serve_db.serve(max_batch=64, slo_ms=10_000.0)
    server.pause()
    futures = [server.submit(q, k=3) for q in serve_queries[:8]]
    server.close()  # resumes, flushes immediately, joins
    for future in futures:
        assert future.result(timeout=30).ids.shape == (3,)


def test_submit_validation(serve_db, serve_queries):
    with serve_db.serve() as server:
        with pytest.raises(ValueError, match="one query"):
            server.submit(serve_queries[:2], k=3)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            server.submit(serve_queries[0], k=0)
        with pytest.raises(ValueError, match="nprobe must be positive"):
            server.submit(serve_queries[0], k=3, nprobe=0)
        # A (1, dim) row vector is accepted as a single query.
        response = server.submit(serve_queries[:1], k=3).result(timeout=30)
        assert response.ids.shape == (3,)

        # Wrong length or a non-finite component is refused at submit,
        # to that caller only, before any counter moves — and never
        # reaches the batch it would have been stacked into.
        submitted = server.stats.submitted
        poisoned = serve_queries[1].copy()
        server.pause()
        futures = [server.submit(q, k=3) for q in serve_queries[:2]]
        with pytest.raises(ValueError, match="dimension 31"):
            server.submit(serve_queries[0][:31], k=3)
        for bad in (np.nan, np.inf, -np.inf):
            poisoned[7] = bad
            with pytest.raises(ValueError, match="non-finite"):
                server.submit(poisoned, k=3)
        futures += [server.submit(q, k=3) for q in serve_queries[2:4]]
        assert server.stats.submitted == submitted + 4
        assert server.depth == 4
        server.resume()
        responses = [f.result(timeout=30) for f in futures]
    assert all(r.batch_size == 4 for r in responses)
    assert server.stats.failed == 0
    oracle = make_serial_oracle(serve_db)
    assert verify_against_oracle(responses, serve_queries[:4], oracle) == []


def test_asyncio_facade(serve_db, serve_queries):
    oracle = make_serial_oracle(serve_db)

    async def drive(server):
        return await asyncio.gather(
            *(server.asubmit(q, k=4) for q in serve_queries[:12])
        )

    with serve_db.serve(max_batch=8) as server:
        responses = asyncio.run(drive(server))
    assert verify_against_oracle(responses, serve_queries[:12], oracle) == []


def test_asyncio_facade_surfaces_admission_errors(serve_db, serve_queries):
    async def drive(server):
        server.pause()
        futures = [
            server.asubmit(q, k=3) for q in serve_queries[:6]
        ]
        tasks = [asyncio.ensure_future(f) for f in futures]
        await asyncio.sleep(0)
        server.resume()
        return await asyncio.gather(*tasks, return_exceptions=True)

    with serve_db.serve(
        max_batch=4, queue_depth=4, shed_policy="reject"
    ) as server:
        outcomes = asyncio.run(drive(server))
    assert sum(isinstance(o, RequestRejected) for o in outcomes) == 2


def test_batch_report_latencies_per_request(serve_db, serve_queries):
    """Satellite fix: served batches report per-request e2e latency."""
    with serve_db.serve(max_batch=8, queue_depth=64) as server:
        server.pause()
        futures = [server.submit(q, k=3) for q in serve_queries[:8]]
        time.sleep(0.03)
        server.resume()
        responses = [f.result(timeout=30) for f in futures]
    report = server.last_report
    assert report is not None
    assert report.latencies.size == 8
    # Queue wait (>= 30 ms here) dominates service; per-request
    # latency must include it, not just the batch wall time.
    assert report.latency_percentile(50) >= 0.03
    assert all(
        report.latencies[i]
        >= report.simulated_seconds - 1e-9
        for i in range(8)
    )
    assert report.queue_seconds == pytest.approx(
        sum(r.queue_seconds for r in responses), rel=1e-6
    )
    payload = report.to_dict()
    assert payload["queue_seconds"] > 0.0
    import json

    json.dumps(payload, allow_nan=False)


def test_serve_metrics_families(serve_db, serve_queries, serve_registry):
    registry = serve_registry
    with serve_db.serve(
        max_batch=4, queue_depth=4, shed_policy="reject"
    ) as server:
        server.pause()
        futures = [server.submit(q, k=3) for q in serve_queries[:6]]
        server.resume()
        for future in futures[:4]:
            future.result(timeout=30)
    families = registry.families()
    for name in (
        "harmony_serve_requests_total",
        "harmony_serve_rejected_total",
        "harmony_serve_batches_total",
        "harmony_serve_batch_size",
        "harmony_serve_queue_depth",
        "harmony_serve_queue_wait_seconds",
        "harmony_serve_service_seconds",
        "harmony_serve_e2e_latency_seconds",
    ):
        assert name in families, name
    text = registry.to_prometheus()
    assert "harmony_serve_requests_total 6" in text
    assert "harmony_serve_rejected_total 2" in text


def test_report_metrics_publishes_serve_counters(serve_db, serve_queries):
    with serve_db.serve(max_batch=8) as server:
        futures = [server.submit(q, k=3) for q in serve_queries[:8]]
        for future in futures:
            future.result(timeout=30)
    registry = report_metrics(server.last_report)
    families = registry.families()
    assert "harmony_queue_wait_seconds_total" in families
    # The serial backend routes through the routing cache, so one of
    # the hit/miss counters must have moved.
    assert (
        "harmony_routing_cache_hits_total" in families
        or "harmony_routing_cache_misses_total" in families
    )


def test_serve_batch_trace_span(serve_db, serve_queries):
    serve_db.enable_tracing()
    try:
        with serve_db.serve(max_batch=8) as server:
            futures = [server.submit(q, k=3) for q in serve_queries[:8]]
            for future in futures:
                future.result(timeout=30)
            time.sleep(0.01)
            spans = [
                s for s in serve_db.tracer.spans() if s.name == "serve-batch"
            ]
    finally:
        serve_db.disable_tracing()
    assert spans, "no serve-batch span recorded"
    span = spans[-1]
    assert span.node == SERVE_LANE
    args = dict(span.args)
    assert args["batch"] == 8
    assert args["k"] == 3


def test_serve_requires_built_db():
    from repro.core.database import HarmonyDB

    empty = HarmonyDB(dim=8, config=HarmonyConfig(nlist=4, n_machines=2))
    with pytest.raises(RuntimeError, match="build"):
        empty.serve()


def test_server_rejects_bad_overrides(serve_db):
    with pytest.raises(ValueError, match="shed_policy"):
        serve_db.serve(shed_policy="drop_everything")
    with pytest.raises(ValueError, match="max_batch"):
        serve_db.serve(max_batch=0)
    with pytest.raises(ValueError, match="queue_depth"):
        serve_db.serve(queue_depth=-1)
    with pytest.raises(ValueError, match="slo_ms"):
        serve_db.serve(slo_ms=0.0)


def test_config_serve_knob_validation(serve_db):
    """The server owns its knobs and their checks, NaN included."""
    for kwargs, message in [
        ({"max_batch": 0}, "max_batch must be positive, got 0"),
        ({"slo_ms": -1.0}, "slo_ms must be positive, got -1.0"),
        ({"slo_ms": float("nan")}, "slo_ms must be positive, got nan"),
        ({"queue_depth": 0}, "queue_depth must be positive, got 0"),
        (
            {"shed_policy": "drop"},
            "unknown shed_policy 'drop'; supported policies: "
            "degrade_nprobe, reject, shed_oldest",
        ),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            serve_db.serve(**kwargs)
    # Dashes normalize to underscores, case-insensitively.
    with serve_db.serve(shed_policy="Degrade-Nprobe") as server:
        assert server.shed_policy == "degrade_nprobe"
    assert server.shed_policy in SHED_POLICIES
    with serve_db.serve() as server:
        assert (server.max_batch, server.slo_ms) == (32, 20.0)
        assert (server.queue_depth, server.shed_policy) == (256, "reject")


# ---------------------------------------------------------------------------
# SLO accounting + flusher crash-safety
# ---------------------------------------------------------------------------


def test_slow_batch_counts_an_slo_violation_and_still_answers(
    serve_db, serve_queries, serve_registry, monkeypatch
):
    """A request that outlives ``slo_ms`` is counted, never cut short:
    a caller bounds its own wait with ``future.result(timeout=)``."""
    from concurrent.futures import TimeoutError as FuturesTimeout

    real_search = serve_db.search

    def slow_search(*args, **kwargs):
        time.sleep(0.1)
        return real_search(*args, **kwargs)

    monkeypatch.setattr(serve_db, "search", slow_search)
    registry = serve_registry
    with serve_db.serve(slo_ms=40.0) as server:
        future = server.submit(serve_queries[0], k=3)
        with pytest.raises(FuturesTimeout):
            future.result(timeout=0.01)
        response = future.result(timeout=30)
    assert not response.degraded
    expected, _ = real_search(serve_queries[:1], k=3)
    assert response.ids.tobytes() == expected.ids[0].tobytes()
    assert server.stats.slo_violations == 1
    assert "harmony_serve_slo_violations_total 1" in registry.to_prometheus()


def test_flusher_survives_batch_crash(
    serve_db, serve_queries, serve_registry, monkeypatch
):
    """A search exception fails that batch's futures, not the flusher."""
    real_search = serve_db.search
    crashes = {"left": 1}

    def flaky_search(*args, **kwargs):
        if crashes["left"] > 0:
            crashes["left"] -= 1
            raise RuntimeError("injected batch crash")
        return real_search(*args, **kwargs)

    monkeypatch.setattr(serve_db, "search", flaky_search)
    registry = serve_registry
    with serve_db.serve() as server:
        doomed = server.submit(serve_queries[0], k=4)
        with pytest.raises(RuntimeError, match="injected batch crash"):
            doomed.result(timeout=30)
        assert server.stats.failed == 1
        assert server._thread.is_alive()
        ok = server.submit(serve_queries[1], k=4).result(timeout=30)
        assert np.any(ok.ids >= 0)
        assert server.stats.completed >= 1
    sample = registry.to_prometheus()
    assert "harmony_serve_failed_total 1" in sample
    stats = server.stats
    assert stats.submitted == stats.completed + stats.rejected + (
        stats.shed + stats.failed
    )


# ---------------------------------------------------------------------------
# Result-cache fast path: hits resolve at submit, ahead of admission
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cached_serve_db(request):
    """A serial-backend deployment with the result cache attached."""
    from repro.data.synthetic import gaussian_blobs

    data = gaussian_blobs(1200, 32, n_blobs=10, cluster_std=0.4, seed=3)
    db = make_db(
        data, nlist=16, nprobe=4, backend="serial", enable_cache=True
    )
    request.addfinalizer(db.close)
    return db


def test_cache_hits_bypass_admission_control(cached_serve_db, serve_queries):
    """Under a saturated queue, cached requests still complete: the
    fast path answers at submit time (zero queue wait, ``cache_hit``
    flagged) while cold requests past capacity are rejected."""
    db = cached_serve_db
    hot = serve_queries[:8]
    warm, _ = db.search(hot, k=5)  # fill the cache
    registry = db.attach_metrics()
    try:
        with db.serve(
            max_batch=4, queue_depth=2, shed_policy="reject"
        ) as server:
            server.pause()  # nothing drains: the queue saturates
            cold_futures = [
                server.submit(q, k=7) for q in serve_queries[8:12]
            ]
            hot_responses = []
            for q in hot:
                # Resolved immediately, without resume() and with the
                # queue already full.
                hot_responses.append(
                    server.submit(q, k=5).result(timeout=1)
                )
            server.resume()
            for future in cold_futures[:2]:
                assert future.result(timeout=30).ids.shape == (7,)
            for future in cold_futures[2:]:
                with pytest.raises(RequestRejected):
                    future.result(timeout=30)
    finally:
        db.detach_metrics()
    for i, response in enumerate(hot_responses):
        assert response.cache_hit
        assert response.queue_seconds == 0.0
        assert response.batch_size == 1
        assert not response.degraded
        np.testing.assert_array_equal(response.ids, warm.ids[i])
        np.testing.assert_array_equal(response.distances, warm.distances[i])
    assert server.stats.cache_hits == len(hot)
    assert server.stats.completed == len(hot) + 2
    assert server.stats.rejected == 2
    sample = registry.to_prometheus()
    assert "harmony_serve_cache_hits_total 8" in sample


def test_cold_requests_take_the_batched_path(cached_serve_db, serve_queries):
    """Misses flow through the micro-batch queue unchanged, and the
    answers they produce seed the cache for later submits."""
    db = cached_serve_db
    queries = serve_queries[10:14]
    with db.serve(max_batch=4, queue_depth=16) as server:
        server.pause()
        futures = [server.submit(q, k=9) for q in queries]
        server.resume()
        first = [f.result(timeout=30) for f in futures]
        assert all(not r.cache_hit for r in first)
        assert all(r.batch_size == 4 for r in first)
        # Identical re-submits now hit at submit time.
        second = [
            server.submit(q, k=9).result(timeout=1) for q in queries
        ]
    for a, b in zip(first, second):
        assert b.cache_hit
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.distances, b.distances)
    oracle = make_serial_oracle(db)
    assert verify_against_oracle(first, queries, oracle) == []
    assert verify_against_oracle(second, queries, oracle) == []
