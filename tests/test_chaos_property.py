"""Chaos property: under random faults, results are never silently wrong.

The contract pinned here is the whole point of degraded mode:

- a query whose coverage is 1.0 returns results **byte-exact** against
  the healthy run (= the serial exactness oracle);
- a query whose coverage is below 1.0 is explicitly flagged as degraded
  and still returns only *genuine* neighbours — real ids carrying their
  true distances — just possibly fewer/worse ones;
- the whole timeline is deterministic: identical seeds replay
  byte-identically.

Both the simulated pipeline under random seeded ``FaultSchedule``s and
the host backends (including the fused ``batch_queries=True`` path)
under static failures are covered.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.faults import FaultSchedule
from repro.distance.kernels import scores_to_query
from tests.conftest import make_db

CHAOS_SEEDS = [0, 1, 2, 3, 4, 5]


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


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_sim_chaos_exact_or_flagged(tiny_data, tiny_queries, seed):
    db = make_db(
        tiny_data, tiny_queries, backend="sim",
        degraded_mode=True, replicas=2,
    )
    oracle, healthy_report = db.search(tiny_queries, k=5)

    schedule = FaultSchedule.random(
        n_workers=4,
        duration=healthy_report.simulated_seconds * 1.5,
        seed=seed,
    )
    db.set_fault_schedule(schedule)
    result, report = db.search(tiny_queries, k=5)
    assert report.degraded is not None
    _assert_genuine(db, result, tiny_queries, report.degraded.coverage, oracle)


@pytest.mark.parametrize("seed", CHAOS_SEEDS[:3])
def test_sim_chaos_deterministic(tiny_data, tiny_queries, seed):
    db = make_db(
        tiny_data, tiny_queries, backend="sim",
        degraded_mode=True, replicas=2,
    )
    _, healthy_report = db.search(tiny_queries, k=5)
    schedule = FaultSchedule.random(
        n_workers=4,
        duration=healthy_report.simulated_seconds * 1.5,
        seed=seed,
    )
    db.set_fault_schedule(schedule)
    r1, rep1 = db.search(tiny_queries, k=5)
    r2, rep2 = db.search(tiny_queries, k=5)
    assert np.array_equal(r1.ids, r2.ids)
    assert np.array_equal(r1.distances, r2.distances)
    assert rep1.simulated_seconds == rep2.simulated_seconds
    assert np.array_equal(rep1.latencies, rep2.latencies)
    assert rep1.fault_stats.to_dict() == rep2.fault_stats.to_dict()
    np.testing.assert_array_equal(
        rep1.degraded.coverage, rep2.degraded.coverage
    )


@pytest.mark.parametrize("seed", CHAOS_SEEDS[:3])
def test_sim_chaos_unreplicated_never_raises(tiny_data, tiny_queries, seed):
    """Without replicas, chaos can only degrade — never raise."""
    db = make_db(tiny_data, tiny_queries, backend="sim", degraded_mode=True)
    oracle, healthy_report = db.search(tiny_queries, k=5)
    schedule = FaultSchedule.random(
        n_workers=4,
        duration=healthy_report.simulated_seconds * 1.5,
        seed=seed,
    )
    db.set_fault_schedule(schedule)
    result, report = db.search(tiny_queries, k=5)
    _assert_genuine(db, result, tiny_queries, report.degraded.coverage, oracle)


@pytest.mark.parametrize("seed", CHAOS_SEEDS[:3])
@pytest.mark.parametrize("batch", [True, False])
def test_host_chaos_static_failures(tiny_data, tiny_queries, seed, batch):
    """Serial backend (incl. the fused batched path) under random fails."""
    rng = np.random.default_rng(seed)
    n_fail = int(rng.integers(1, 3))
    failed = rng.choice(4, size=n_fail, replace=False)

    sim = make_db(
        tiny_data, tiny_queries, backend="sim",
        degraded_mode=True, replicas=2,
    )
    oracle, _ = sim.search(tiny_queries, k=5)

    host = make_db(
        tiny_data,
        tiny_queries,
        backend="serial",
        degraded_mode=True,
        replicas=2,
        batch_queries=batch,
    )
    for m in failed:
        host.cluster.fail_worker(int(m))
        sim.cluster.fail_worker(int(m))
    result, report = host.search(tiny_queries, k=5)
    assert report.degraded is not None
    _assert_genuine(
        sim, result, tiny_queries, report.degraded.coverage, oracle
    )
    # The sim pipeline must agree byte-for-byte with the host backend
    # under the identical static failure set.
    sim_result, sim_report = sim.search(tiny_queries, k=5)
    assert np.array_equal(result.ids, sim_result.ids)
    assert np.array_equal(result.distances, sim_result.distances)
    np.testing.assert_array_equal(
        report.degraded.coverage, sim_report.degraded.coverage
    )


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
