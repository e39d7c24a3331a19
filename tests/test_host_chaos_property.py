"""Host chaos property: wall-clock faults never silently corrupt results.

The host twin of ``tests/test_chaos_property.py``: instead of scripting
failures on the simulated timeline, a seeded
:class:`~repro.cluster.host_faults.HostFaultInjector` kills real worker
processes mid-batch, injects straggler delays, and the supervised pools
must uphold the same contract the sim pipeline pins:

- a query whose coverage is 1.0 returns results **byte-exact** against
  the serial exactness oracle, no matter which chaos schedule ran;
- a query whose coverage is below 1.0 is explicitly flagged and still
  returns only genuine neighbours at their true distances;
- recovery is invisible to callers: the search after a chaos-hit batch
  runs clean on the healed pool.

Schedules are replayable (seeded), but wall-clock interleaving is not —
so unlike the sim twin there is no timing-determinism assertion; the
byte-exactness-at-full-coverage property is the invariant that must
survive every interleaving.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.host_faults import HostFaultInjector
from tests.conftest import make_db
from tests.test_chaos_property import _assert_genuine

CHAOS_SEEDS = [0, 1, 2, 3, 4, 5]

HOST_BACKENDS = ["thread", "process"]


def _backend_kwargs(backend: str) -> dict:
    if backend == "process":
        return {"backend": "process", "n_workers": 2}
    return {"backend": "thread", "n_threads": 2}


def _make_chaos_db(data, queries, backend, **overrides):
    kwargs = _backend_kwargs(backend)
    kwargs.update(overrides)
    return make_db(data, queries, **kwargs)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("backend", HOST_BACKENDS)
def test_host_chaos_exact_or_flagged(tiny_data, tiny_queries, backend, seed):
    """Random kills + delays: byte-exact at full coverage, else flagged."""
    oracle_db = make_db(tiny_data, tiny_queries, backend="serial")
    oracle, _ = oracle_db.search(tiny_queries, k=5)

    db = _make_chaos_db(
        tiny_data, tiny_queries, backend,
        degraded_mode=True,
    )
    n_workers = 2
    injector = HostFaultInjector.random(n_workers=n_workers, seed=seed)
    db.set_host_faults(injector)
    try:
        result, report = db.search(tiny_queries, k=5)
        assert report.degraded is not None
        coverage = report.degraded.coverage
        _assert_genuine(db, result, tiny_queries, coverage, oracle)
        if np.all(coverage == 1.0):
            np.testing.assert_array_equal(result.ids, oracle.ids)
            np.testing.assert_array_equal(
                result.distances, oracle.distances
            )
    finally:
        db.close()


@pytest.mark.parametrize("seed", CHAOS_SEEDS[:3])
@pytest.mark.parametrize("backend", HOST_BACKENDS)
def test_host_chaos_without_degraded_mode_stays_exact(
    tiny_data, tiny_queries, backend, seed
):
    """Exact mode: recovery (requeue / retry / fallback) must be total.

    Without ``degraded_mode`` there is no abandonment escape hatch —
    every injected kill must be healed by re-running its tasks, so the
    answer is byte-identical to the oracle or the search raises. It
    must never be silently short.
    """
    oracle_db = make_db(tiny_data, tiny_queries, backend="serial")
    oracle, _ = oracle_db.search(tiny_queries, k=5)

    db = _make_chaos_db(tiny_data, tiny_queries, backend)
    injector = HostFaultInjector.random(n_workers=2, seed=seed)
    db.set_host_faults(injector)
    try:
        result, report = db.search(tiny_queries, k=5)
        np.testing.assert_array_equal(result.ids, oracle.ids)
        np.testing.assert_array_equal(result.distances, oracle.distances)
        if injector.fired and report.fault_stats is not None:
            stats = report.fault_stats.to_dict()
            assert stats["worker_respawns"] or stats["tasks_requeued"]
    finally:
        db.close()


@pytest.mark.parametrize("backend", HOST_BACKENDS)
def test_host_chaos_next_search_runs_clean(tiny_data, tiny_queries, backend):
    """The batch after a chaos hit runs on a healed pool, byte-exact."""
    oracle_db = make_db(tiny_data, tiny_queries, backend="serial")
    oracle, _ = oracle_db.search(tiny_queries, k=5)

    db = _make_chaos_db(tiny_data, tiny_queries, backend)
    injector = HostFaultInjector.random(n_workers=2, seed=0)
    db.set_host_faults(injector)
    try:
        db.search(tiny_queries, k=5)
        # Second batch: all one-shot kills are spent; results and
        # fault counters must both be clean.
        result, report = db.search(tiny_queries, k=5)
        np.testing.assert_array_equal(result.ids, oracle.ids)
        np.testing.assert_array_equal(result.distances, oracle.distances)
        stats = report.fault_stats
        if stats is not None:
            assert stats.worker_respawns == 0
            assert stats.tasks_requeued == 0
    finally:
        db.close()


@pytest.mark.parametrize("seed", CHAOS_SEEDS[:3])
@pytest.mark.parametrize("backend", HOST_BACKENDS)
def test_served_requests_survive_host_chaos(
    tiny_data, tiny_queries, backend, seed
):
    """Requests served through HarmonyServer complete exactly under chaos."""
    oracle_db = make_db(tiny_data, tiny_queries, backend="serial")
    oracle, _ = oracle_db.search(tiny_queries, k=5)

    db = _make_chaos_db(tiny_data, tiny_queries, backend)
    injector = HostFaultInjector.random(n_workers=2, seed=seed)
    db.set_host_faults(injector)
    try:
        with db.serve(slo_ms=60_000.0) as server:
            futures = [
                server.submit(tiny_queries[i], k=5)
                for i in range(len(tiny_queries))
            ]
            for i, future in enumerate(futures):
                response = future.result(timeout=120)
                np.testing.assert_array_equal(response.ids, oracle.ids[i])
                np.testing.assert_array_equal(
                    response.distances, oracle.distances[i]
                )
    finally:
        db.close()


@pytest.mark.parametrize("backend", ["sim", "serial"])
def test_sim_injector_rejected(tiny_data, tiny_queries, backend):
    """Only the two pools act host faults out: the sim backend scripts
    faults via FaultSchedule, and the serial loop would accept the
    injector and ignore it."""
    db = make_db(tiny_data, tiny_queries, backend=backend)
    with pytest.raises(ValueError, match="host"):
        db.set_host_faults(HostFaultInjector.random(n_workers=2, seed=0))
