"""Chaos property: under faults, results are never silently wrong.

The contract pinned here is the whole point of degraded mode:

- a query whose coverage is 1.0 returns results **byte-exact** against
  the serial exactness oracle;
- a query whose coverage is below 1.0 is explicitly flagged as degraded
  and still returns only *genuine* neighbours — real ids carrying their
  true distances — just possibly fewer/worse ones.

Faults come in the repo's two forms. Static machine failures
(``cluster.fail_worker``) are one model every backend honours: under a
random failure set, serial, thread, process and sim return the same
ids, distances, coverage and skip counts. A seeded
:class:`~repro.cluster.host_faults.HostFaultInjector` instead kills real
pool workers mid-batch and injects straggler delays; its schedules are
replayable but wall-clock interleaving is not, so there the
byte-exactness-at-full-coverage property is the invariant that must
survive every interleaving, and recovery must be invisible to the next
search.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.host_faults import DropSharedMemory, HostFaultInjector
from repro.distance.kernels import scores_to_query
from tests.conftest import make_db

CHAOS_SEEDS = [0, 1, 2, 3, 4, 5]

BACKENDS = ["serial", "thread", "process", "sim"]

HOST_BACKENDS = ["thread", "process"]


def _assert_genuine(db, result, queries, coverage, oracle):
    """Every row is byte-exact (full coverage) or flagged + genuine."""
    prepared = db._executor().kernel.prepare_queries(queries)
    for i in range(result.n_queries):
        if coverage[i] == 1.0:
            np.testing.assert_array_equal(result.ids[i], oracle.ids[i])
            np.testing.assert_array_equal(
                result.distances[i], oracle.distances[i]
            )
            continue
        # Explicitly flagged degraded: returned neighbours must still
        # be real vectors at their true distances (no fabrications).
        mask = result.ids[i] >= 0
        ids = result.ids[i][mask]
        assert ids.size == np.unique(ids).size, "duplicate ids in a row"
        if ids.size == 0:
            continue
        true_scores = scores_to_query(
            db.index.base[ids], prepared[i], db.index.metric
        )
        np.testing.assert_allclose(
            result.distances[i][mask], true_scores, rtol=1e-4, atol=1e-5
        )


def _backend_kwargs(backend: str) -> dict:
    if backend == "process":
        return {"backend": "process", "n_workers": 2}
    if backend == "thread":
        return {"backend": "thread", "n_threads": 2}
    return {"backend": backend}


def _make_chaos_db(data, queries, backend, **overrides):
    kwargs = _backend_kwargs(backend)
    kwargs.update(overrides)
    return make_db(data, queries, **kwargs)


def _random_failures(seed: int) -> list[int]:
    """One or two of the four workers, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n_fail = int(rng.integers(1, 3))
    return [int(m) for m in rng.choice(4, size=n_fail, replace=False)]


# ----------------------------------------------------------------------
# Static machine failures: one model, every backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", CHAOS_SEEDS[:3])
@pytest.mark.parametrize("batch", [True, False])
def test_host_chaos_static_failures(tiny_data, tiny_queries, seed, batch):
    """A random failure set, unreplicated and at two replicas: every
    backend is exact-or-flagged, and all four agree on ids, distances,
    coverage and skip counts."""
    oracle, _ = make_db(tiny_data, tiny_queries, backend="serial").search(
        tiny_queries, k=5
    )
    failed = _random_failures(seed)
    for replicas in (1, 2):
        answers = {}
        for backend in BACKENDS:
            db = _make_chaos_db(
                tiny_data, tiny_queries, backend,
                degraded_mode=True, replicas=replicas, batch_queries=batch,
            )
            for machine in failed:
                db.cluster.fail_worker(machine)
            try:
                result, report = db.search(tiny_queries, k=5)
                degraded = report.degraded
                assert degraded is not None
                _assert_genuine(
                    db, result, tiny_queries, degraded.coverage, oracle
                )
            finally:
                db.close()
            answers[backend] = (result, degraded)
        reference, ref_degraded = answers["serial"]
        for backend, (result, degraded) in answers.items():
            label = f"{backend}, replicas={replicas}"
            np.testing.assert_array_equal(result.ids, reference.ids, label)
            np.testing.assert_array_equal(
                result.distances, reference.distances, label
            )
            np.testing.assert_array_equal(
                degraded.coverage, ref_degraded.coverage, label
            )
            assert (
                degraded.n_degraded_queries,
                degraded.skipped_scans,
            ) == (
                ref_degraded.n_degraded_queries,
                ref_degraded.skipped_scans,
            ), label


def test_host_batched_equals_looped_under_failures(tiny_data, tiny_queries):
    """batch_queries=True and False agree byte-exactly when degraded."""
    results = []
    for batch in (True, False):
        db = make_db(
            tiny_data,
            tiny_queries,
            backend="serial",
            degraded_mode=True,
            replicas=2,
            batch_queries=batch,
        )
        db.cluster.fail_worker(0)
        db.cluster.fail_worker(1)
        results.append(db.search(tiny_queries, k=5))
    (r_batch, rep_batch), (r_loop, rep_loop) = results
    assert np.array_equal(r_batch.ids, r_loop.ids)
    assert np.array_equal(r_batch.distances, r_loop.distances)
    np.testing.assert_array_equal(
        rep_batch.degraded.coverage, rep_loop.degraded.coverage
    )
    assert rep_batch.degraded.min_coverage < 1.0


# ----------------------------------------------------------------------
# Host chaos: real pool workers killed and slowed
# ----------------------------------------------------------------------


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
    """Only the two pools act host faults out: the sim backend fails
    machines via ``cluster.fail_worker``, and the serial loop would
    accept the injector and ignore it."""
    db = make_db(tiny_data, tiny_queries, backend=backend)
    with pytest.raises(ValueError, match="host"):
        db.set_host_faults(HostFaultInjector.random(n_workers=2, seed=0))


def test_thread_shm_drop_rejected(tiny_data, tiny_queries):
    """The thread pool has no shared segment: a shm-drop rule would be
    accepted and never fire, so attaching one raises instead."""
    db = make_db(tiny_data, tiny_queries, backend="thread", n_threads=2)
    injector = HostFaultInjector(shm_drops=[DropSharedMemory(0)])
    with pytest.raises(ValueError, match="process pool"):
        db.set_host_faults(injector)
    # Kills and delays without shm drops still attach.
    db.set_host_faults(HostFaultInjector.random(n_workers=2, seed=0))
    db.close()
