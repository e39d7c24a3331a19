"""Chaos property: under faults, results are never silently wrong.

The contract pinned here is the whole point of degraded mode:

- a query whose coverage is 1.0 returns results **byte-exact** against
  the serial exactness oracle;
- a query whose coverage is below 1.0 is explicitly flagged as degraded
  and still returns only *genuine* neighbours — real ids carrying their
  true distances — just possibly fewer/worse ones.

Faults come in the repo's two forms. Static machine failures
(``cluster.fail_worker``) are one model every backend honours: under a
random failure set, serial, process and sim return the same ids,
distances, coverage and skip counts. A seeded
:class:`~repro.cluster.host_faults.HostFaultInjector` instead kills real
process-pool workers mid-batch and injects straggler delays; its
schedules are replayable but wall-clock interleaving is not, so there the
byte-exactness-at-full-coverage property is the invariant that must
survive every interleaving, and recovery must be invisible to the next
search.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cluster.host_faults import (
    DelayScan,
    DropSharedMemory,
    HostFaultInjector,
    KillWorker,
)
from repro.core.executor.process import _MIN_CHUNK
from repro.distance.kernels import scores_to_query
from tests.conftest import make_db

CHAOS_SEEDS = [0, 1, 2, 3, 4, 5]

BACKENDS = ["serial", "process", "sim"]

#: The one backend with a pool to act worker kills out.
HOST_BACKENDS = ["process"]


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
    backend is exact-or-flagged, and all three agree on ids, distances,
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


#: Seeds of ``CHAOS_SEEDS`` whose drawn kill fired within one search
#: under the pool's former guided cut (⌈remaining / (2 · workers)⌉
#: queries a chunk, two tasks a worker on ``tiny_queries``): seeds 0, 2
#: and 3 of the four that draw a kill.
KILLS_FIRED_UNDER_GUIDED_CUT = 3


def _search_until_fired(db, injector, queries, check) -> int:
    """Search ``queries`` until the drawn kill has fired; return the
    number of searches run.

    The pool cuts a search into one chunk per worker, so each worker
    starts one task a search and a kill at ``at_task`` fires within
    ``at_task + 1`` searches; a schedule without a kill runs one.
    ``check(result, report)`` sees every search.
    """
    rounds = 1 + max((kill.at_task for kill in injector.kills), default=0)
    for n in range(1, rounds + 1):
        check(*db.search(queries, k=5))
        if injector.fired:
            break
    return n


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("backend", HOST_BACKENDS)
def test_host_chaos_exact_or_flagged(tiny_data, tiny_queries, backend, seed):
    """Random kills + delays: byte-exact at full coverage, else flagged,
    on every search until the drawn kill has fired."""
    oracle_db = make_db(tiny_data, tiny_queries, backend="serial")
    oracle, _ = oracle_db.search(tiny_queries, k=5)

    db = _make_chaos_db(
        tiny_data, tiny_queries, backend,
        degraded_mode=True,
    )
    n_workers = 2
    injector = HostFaultInjector.random(n_workers=n_workers, seed=seed)
    db.set_host_faults(injector)

    def check(result, report):
        assert report.degraded is not None
        coverage = report.degraded.coverage
        _assert_genuine(db, result, tiny_queries, coverage, oracle)
        if np.all(coverage == 1.0):
            np.testing.assert_array_equal(result.ids, oracle.ids)
            np.testing.assert_array_equal(
                result.distances, oracle.distances
            )

    try:
        _search_until_fired(db, injector, tiny_queries, check)
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
    answer of every search until the kill has fired is byte-identical
    to the oracle or the search raises. It must never be silently short.
    """
    oracle_db = make_db(tiny_data, tiny_queries, backend="serial")
    oracle, _ = oracle_db.search(tiny_queries, k=5)

    db = _make_chaos_db(tiny_data, tiny_queries, backend)
    injector = HostFaultInjector.random(n_workers=2, seed=seed)
    db.set_host_faults(injector)

    def check(result, report):
        np.testing.assert_array_equal(result.ids, oracle.ids)
        np.testing.assert_array_equal(result.distances, oracle.distances)
        if injector.fired and report.fault_stats is not None:
            stats = report.fault_stats.to_dict()
            assert stats["worker_respawns"] or stats["tasks_requeued"]

    try:
        _search_until_fired(db, injector, tiny_queries, check)
    finally:
        db.close()


@pytest.mark.parametrize("backend", HOST_BACKENDS)
def test_host_chaos_kills_fire(tiny_data, tiny_queries, backend):
    """Seeded kills still fire: searching until the drawn schedule has
    fired, bounded by ``at_task + 1`` searches, fires the kill of at
    least as many ``CHAOS_SEEDS`` as one search did under the former
    guided cut, and every answer on the way is the oracle's."""
    oracle, _ = make_db(tiny_data, tiny_queries, backend="serial").search(
        tiny_queries, k=5
    )

    def check(result, report):
        np.testing.assert_array_equal(result.ids, oracle.ids)
        np.testing.assert_array_equal(result.distances, oracle.distances)

    fired = 0
    for seed in CHAOS_SEEDS:
        injector = HostFaultInjector.random(n_workers=2, seed=seed)
        if not injector.kills:
            continue
        db = _make_chaos_db(tiny_data, tiny_queries, backend)
        db.set_host_faults(injector)
        try:
            _search_until_fired(db, injector, tiny_queries, check)
        finally:
            db.close()
        fired += bool(injector.fired)
    assert fired >= KILLS_FIRED_UNDER_GUIDED_CUT


@pytest.mark.parametrize("backend", HOST_BACKENDS)
def test_host_chaos_next_search_runs_clean(tiny_data, tiny_queries, backend):
    """The batch after a chaos hit runs on a healed pool, byte-exact."""
    oracle_db = make_db(tiny_data, tiny_queries, backend="serial")
    oracle, _ = oracle_db.search(tiny_queries, k=5)

    db = _make_chaos_db(tiny_data, tiny_queries, backend)
    injector = HostFaultInjector.random(n_workers=2, seed=0)
    db.set_host_faults(injector)

    def check(result, report):
        np.testing.assert_array_equal(result.ids, oracle.ids)
        np.testing.assert_array_equal(result.distances, oracle.distances)

    try:
        # Seed 0 kills worker 1 as it starts its second task: in the
        # second search, one chunk per worker.
        assert _search_until_fired(db, injector, tiny_queries, check) == 2
        assert injector.fired == ["kill:worker=1"]
        # Next batch: all one-shot kills are spent; results and fault
        # counters must both be clean.
        result, report = db.search(tiny_queries, k=5)
        check(result, report)
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
    """Requests served through HarmonyServer complete exactly under
    chaos, round after round until the drawn kill has fired (at most
    ``at_task + 1`` rounds: the server may coalesce a round into
    searches the parent runs, which start no task)."""
    oracle_db = make_db(tiny_data, tiny_queries, backend="serial")
    oracle, _ = oracle_db.search(tiny_queries, k=5)

    db = _make_chaos_db(tiny_data, tiny_queries, backend)
    injector = HostFaultInjector.random(n_workers=2, seed=seed)
    db.set_host_faults(injector)
    rounds = 1 + max((kill.at_task for kill in injector.kills), default=0)
    try:
        with db.serve(slo_ms=60_000.0) as server:
            for _ in range(rounds):
                futures = [
                    server.submit(tiny_queries[i], k=5)
                    for i in range(len(tiny_queries))
                ]
                for i, future in enumerate(futures):
                    response = future.result(timeout=120)
                    np.testing.assert_array_equal(
                        response.ids, oracle.ids[i]
                    )
                    np.testing.assert_array_equal(
                        response.distances, oracle.distances[i]
                    )
                if injector.fired:
                    break
    finally:
        db.close()


@pytest.mark.parametrize("backend", ["sim", "serial"])
def test_sim_injector_rejected(tiny_data, tiny_queries, backend):
    """A rule a backend cannot act out is refused, not ignored: the sim
    backend fails machines via ``cluster.fail_worker``, and the serial
    loop has no worker to kill."""
    db = make_db(tiny_data, tiny_queries, backend=backend)
    with pytest.raises(ValueError, match="host"):
        db.set_host_faults(
            HostFaultInjector(kills=[KillWorker(worker=0, at_task=0)])
        )


def test_thread_shm_drop_rejected(tiny_data, tiny_queries):
    """The retired ``"thread"`` spelling builds the serial loop, which
    has no shared segment and no worker: a shm-drop or kill rule would
    be accepted and never fire, so attaching one raises instead; a
    delay still attaches."""
    db = make_db(tiny_data, tiny_queries, backend="thread", n_threads=2)
    for injector in (
        HostFaultInjector(shm_drops=[DropSharedMemory(at_batch=0)]),
        HostFaultInjector(kills=[KillWorker(worker=0, at_task=0)]),
    ):
        with pytest.raises(ValueError, match="serial loop"):
            db.set_host_faults(injector)
    db.set_host_faults(HostFaultInjector(delays=[DelayScan(multiplier=2.0)]))
    db.close()


def test_serial_loop_acts_out_scan_delays(tiny_data, tiny_queries):
    """A search is the serial loop's one task: a ``DelayScan`` rule
    slows every ``every``-th search by its ``seconds`` and changes no
    answer."""
    db = make_db(tiny_data, tiny_queries, backend="serial")
    oracle, _ = db.search(tiny_queries, k=5)
    db.set_host_faults(
        HostFaultInjector(delays=[DelayScan(seconds=0.2, every=2)])
    )
    seconds = []
    for _ in range(2):
        start = time.perf_counter()
        result, _ = db.search(tiny_queries, k=5)
        seconds.append(time.perf_counter() - start)
        np.testing.assert_array_equal(result.ids, oracle.ids)
        np.testing.assert_array_equal(result.distances, oracle.distances)
    assert seconds[0] < 0.2 <= seconds[1]


# ----------------------------------------------------------------------
# A search too small to split runs in the parent: what chaos does to it
# ----------------------------------------------------------------------


def test_parent_run_search_takes_the_serial_loops_delay(
    tiny_data, tiny_queries, monkeypatch
):
    """A search of at most ``_MIN_CHUNK`` queries runs the serial loop
    in the parent, so it takes ``search_delay()`` once, as the serial
    backend and the total-loss fallback do: a ``DelayScan`` restricted
    to worker 1 applies to it, as it does on serial. A search the pool
    runs takes no delay in the parent; its workers act theirs out."""
    import repro.core.executor.base as base

    slept = []
    monkeypatch.setattr(
        base, "sleep_for_delay", lambda delay, elapsed: slept.append(delay)
    )
    rule = DelayScan(seconds=0.01, worker=1)
    small = tiny_queries[:_MIN_CHUNK]
    for backend in ("serial", "process"):
        db = _make_chaos_db(tiny_data, tiny_queries, backend)
        db.set_host_faults(HostFaultInjector(delays=[rule]))
        try:
            slept.clear()
            for _ in range(2):
                db.search(small, k=5)
            assert slept == [(1.0, 0.01)] * 2, backend
            if backend == "process":
                db.search(tiny_queries, k=5)  # the pool's search
                assert slept == [(1.0, 0.01)] * 2
                assert db._executor().pool_running
        finally:
            db.close()


def test_parent_run_search_leaves_kill_rules_armed(tiny_data, tiny_queries):
    """A ``KillWorker`` rule fires when a worker starts a task, and a
    search the parent runs starts none: the rule stays armed through
    any number of them, then fires on the first search the pool runs,
    whose answer is still the oracle's."""
    oracle, _ = make_db(tiny_data, tiny_queries, backend="serial").search(
        tiny_queries, k=5
    )
    db = _make_chaos_db(tiny_data, tiny_queries, "process")
    injector = HostFaultInjector(kills=[KillWorker(worker=0, at_task=0)])
    db.set_host_faults(injector)
    try:
        for lo in range(3):
            hi = lo + _MIN_CHUNK
            result, report = db.search(tiny_queries[lo:hi], k=5)
            np.testing.assert_array_equal(result.ids, oracle.ids[lo:hi])
            np.testing.assert_array_equal(
                result.distances, oracle.distances[lo:hi]
            )
            assert report.fault_stats is None
        assert injector.fired == []
        assert injector.process_spec()["kills"] == {0: 0}
        result, report = db.search(tiny_queries, k=5)
        assert injector.fired == ["kill:worker=0"]
        assert report.fault_stats.worker_respawns == 1
        np.testing.assert_array_equal(result.ids, oracle.ids)
        np.testing.assert_array_equal(result.distances, oracle.distances)
    finally:
        db.close()


def test_parent_run_search_counts_toward_a_shm_drop(tiny_data, tiny_queries):
    """``DropSharedMemory.at_batch`` counts every search, those the
    parent runs included: with ``at_batch=2``, two one-query searches
    leave the pool up, and the third drops the segment and falls back
    to the serial loop with the oracle's answer."""
    oracle, _ = make_db(tiny_data, tiny_queries, backend="serial").search(
        tiny_queries, k=5
    )
    db = _make_chaos_db(tiny_data, tiny_queries, "process")
    injector = HostFaultInjector(shm_drops=[DropSharedMemory(at_batch=2)])
    db.set_host_faults(injector)
    try:
        backend = db._executor()
        for q in range(2):
            db.search(tiny_queries[q : q + 1], k=5)
            assert backend.pool_running and not backend.fallback_active
        assert injector.fired == []
        result, _ = db.search(tiny_queries[2:3], k=5)
        assert injector.fired == ["shm-drop:batch=2"]
        assert backend.fallback_active
        assert backend.shared_layout_nbytes() == 0
        np.testing.assert_array_equal(result.ids, oracle.ids[2:3])
        np.testing.assert_array_equal(result.distances, oracle.distances[2:3])
    finally:
        db.close()
