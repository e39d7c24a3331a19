"""Process backend: shared layouts, pool lifecycle, supervision, fallback.

Byte-exactness against the serial oracle lives in
``test_executor_equivalence.py``; this module covers the machinery
around it — the shared-memory layout's build/manifest/attach
lifecycle, persistent pool reuse and revival, the parent's dispatch
loop under slow and dying workers, and graceful fallback to the serial
loop when shared memory or the whole pool is lost.
"""

import os
import signal
import threading

import numpy as np
import pytest

from repro.core.config import HarmonyConfig
from repro.core.database import HarmonyDB
from repro.core.executor import ProcessBackend, SerialBackend, ThreadBackend
from repro.core.layout import ShardPackedBase, SharedShardPackedBase
from repro.core.partition import build_plan
from repro.distance.metrics import Metric
from repro.index.ivf import IVFFlatIndex

N_LABELS = 4


def make_index(metric=Metric.L2, n=400, dim=24, nlist=16, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, dim)).astype(np.float32)
    index = IVFFlatIndex(dim=dim, nlist=nlist, metric=metric, seed=0)
    index.train(base)
    index.add(base, labels=rng.integers(0, N_LABELS, n))
    return index


def make_queries(dim, nq=12, seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((nq, dim)).astype(np.float32)


# ---------------------------------------------------------------------------
# SharedShardPackedBase
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "metric", [Metric.L2, Metric.INNER_PRODUCT, Metric.COSINE]
)
def test_shared_layout_gathers_like_packed(metric):
    """Re-homing into shared memory changes bytes' address, not value."""
    index = make_index(metric)
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    from repro.distance.partial import slice_norms

    norms = None if metric is Metric.L2 else slice_norms(
        index.base, plan.slices
    )
    packed = ShardPackedBase.build(index, plan, base_slice_norms=norms)
    shared = SharedShardPackedBase.from_packed(packed)
    try:
        assert shared.matches(index)
        assert shared.nbytes > 0
        assert shared.shm_name is not None
        lists = np.arange(index.nlist, dtype=np.int64)
        for shard in range(plan.n_vector_shards):
            shard_lists = plan.lists_of_shard(shard)
            part_p = packed.gather(shard, shard_lists)
            part_s = shared.gather(shard, shard_lists)
            np.testing.assert_array_equal(part_s.ids, part_p.ids)
            np.testing.assert_array_equal(
                part_s.slabs.rows(part_s.local),
                part_p.slabs.rows(part_p.local),
            )
            np.testing.assert_array_equal(
                part_s.slabs.rows(part_s.local), index.base[part_p.ids]
            )
            if part_p.norms is None:
                assert part_s.norms is None
            else:
                np.testing.assert_array_equal(part_s.norms, part_p.norms)
    finally:
        shared.unlink()


def test_shared_layout_manifest_roundtrip():
    """attach(manifest()) maps the same pages with identical contents."""
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    shared = SharedShardPackedBase.build(index, plan)
    attached = None
    try:
        manifest = shared.manifest()
        assert manifest["shm_name"] == shared.shm_name
        assert manifest["version"] == index.version
        attached = SharedShardPackedBase.attach(manifest)
        assert attached.matches(index)
        for shard in range(plan.n_vector_shards):
            shard_lists = plan.lists_of_shard(shard)
            part_a = attached.gather(shard, shard_lists)
            part_s = shared.gather(shard, shard_lists)
            np.testing.assert_array_equal(part_a.ids, part_s.ids)
            np.testing.assert_array_equal(
                part_a.slabs.rows(part_a.local),
                part_s.slabs.rows(part_s.local),
            )
        # Attachers share physical pages: a write through one mapping
        # is visible through the other (zero-copy, not a pickle).
        shared._ids[0][0] = 123456
        assert attached._ids[0][0] == 123456
    finally:
        if attached is not None:
            attached.close()
        shared.unlink()


def test_shared_layout_code_segments_roundtrip():
    """SQ8 code blocks, error tables, and quantization parameters are
    re-homed into the same shared segment and survive attach()."""
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    packed = ShardPackedBase.build(index, plan, with_codes=True)
    shared = SharedShardPackedBase.from_packed(packed)
    attached = None
    try:
        assert shared.has_codes
        assert shared.codes_nbytes == packed.codes_nbytes
        np.testing.assert_array_equal(shared.code_lo, packed.code_lo)
        np.testing.assert_array_equal(shared.code_scale, packed.code_scale)
        attached = SharedShardPackedBase.attach(shared.manifest())
        assert attached.has_codes
        np.testing.assert_array_equal(attached.code_lo, packed.code_lo)
        np.testing.assert_array_equal(
            attached.code_scale, packed.code_scale
        )
        for shard in range(plan.n_vector_shards):
            lists = plan.lists_of_shard(shard)
            part_p = packed.gather_sq8(shard, lists)
            for layout in (shared, attached):
                part = layout.gather_sq8(shard, lists)
                np.testing.assert_array_equal(part.ids, part_p.ids)
                np.testing.assert_array_equal(
                    part.slabs.rows(part.local),
                    part_p.slabs.rows(part_p.local),
                )
                np.testing.assert_array_equal(part.err, part_p.err)
                np.testing.assert_array_equal(
                    part.exact.rows(part.local),
                    part_p.exact.rows(part_p.local),
                )
    finally:
        if attached is not None:
            attached.close()
        shared.unlink()


def test_shared_layout_without_codes_has_no_code_segments():
    """A codeless build round-trips with has_codes False on both ends."""
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    shared = SharedShardPackedBase.build(index, plan)
    attached = None
    try:
        assert not shared.has_codes
        attached = SharedShardPackedBase.attach(shared.manifest())
        assert not attached.has_codes
        assert attached.codes_nbytes == 0
        with pytest.raises(RuntimeError, match="codes"):
            attached.gather_sq8(0, plan.lists_of_shard(0))
    finally:
        if attached is not None:
            attached.close()
        shared.unlink()


def test_process_backend_rebuilds_codeless_shared_layout():
    """An sq8 ProcessBackend must treat a codeless shared layout as
    stale and rebuild it with code segments before dispatching."""
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    queries = make_queries(index.dim)
    reference = SerialBackend(index, plan=plan).search(queries, k=5, nprobe=4)
    with ProcessBackend(
        index, plan=plan, n_workers=2, scan_precision="sq8"
    ) as backend:
        result = backend.search(queries, k=5, nprobe=4)
        assert backend._shared_layout.has_codes
        first = backend._shared_layout
        # Replace with a codeless-but-current-version layout: the
        # staleness check must reject it and re-home a coded one.
        codeless = SharedShardPackedBase.build(index, plan)
        backend._shared_layout = codeless
        try:
            again = backend.search(queries, k=5, nprobe=4)
        finally:
            if backend._shared_layout is not codeless:
                codeless.unlink()
        assert backend._shared_layout.has_codes
        assert backend._shared_layout is not first
        np.testing.assert_array_equal(result.ids, reference.ids)
        np.testing.assert_array_equal(result.distances, reference.distances)
        np.testing.assert_array_equal(again.ids, reference.ids)
        np.testing.assert_array_equal(
            again.distances, reference.distances
        )
        assert not backend.fallback_active


def test_shared_layout_staleness_and_unbacked_manifest():
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    from repro.core.layout import _attach_shm

    shared = SharedShardPackedBase.build(index, plan)
    name = shared.shm_name
    try:
        assert shared.matches(index)
        index.add(np.ones((3, index.dim), dtype=np.float32))
        assert not shared.matches(index)
        # close() is the only way a layout comes to have no segment.
        shared.close()
        with pytest.raises(RuntimeError, match="not backed"):
            shared.manifest()
    finally:
        shared.unlink()
    with pytest.raises(FileNotFoundError):
        _attach_shm(name)  # the owner frees it even after its own close()
    plain = ShardPackedBase.build(index, plan)
    with pytest.raises(AttributeError):
        plain.manifest()  # only the shared subclass has a manifest


def test_owner_layout_segment_freed_without_unlink():
    """Dropping the owner without unlink() still frees the segment.

    The ``weakref.finalize`` guard is the backstop against /dev/shm
    leaks when a caller garbage-collects a layout (or the interpreter
    exits) without running the explicit lifecycle.
    """
    import gc

    from repro.core.layout import _attach_shm

    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)

    shared = SharedShardPackedBase.build(index, plan)
    name = shared.shm_name
    _attach_shm(name).close()  # segment exists while the owner lives
    del shared
    gc.collect()
    with pytest.raises(FileNotFoundError):
        _attach_shm(name)

    # An attacher must NOT free the segment at GC — only its mapping.
    shared = SharedShardPackedBase.build(index, plan)
    name = shared.shm_name
    attached = SharedShardPackedBase.attach(shared.manifest())
    del attached
    gc.collect()
    _attach_shm(name).close()  # still alive: owner holds it
    # Explicit unlink detaches the finalizer; GC after is a no-op.
    shared.unlink()
    del shared
    gc.collect()
    with pytest.raises(FileNotFoundError):
        _attach_shm(name)


# ---------------------------------------------------------------------------
# Pool lifecycle
# ---------------------------------------------------------------------------


def test_pool_persists_and_revives():
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    queries = make_queries(index.dim)
    serial = SerialBackend(index, plan=plan)
    reference = serial.search(queries, k=5, nprobe=4)

    backend = ProcessBackend(index, plan=plan, n_workers=2)
    assert not backend.pool_running
    backend.search(queries, k=5, nprobe=4)
    assert backend.pool_running
    first_pids = [p.pid for p in backend._procs]
    backend.search(queries, k=5, nprobe=4)
    assert [p.pid for p in backend._procs] == first_pids  # reused, not respawned
    assert backend.shared_layout_nbytes() > 0

    backend.close()
    assert not backend.pool_running
    backend.close()  # idempotent

    # A closed backend revives lazily on the next search.
    revived = backend.search(queries, k=5, nprobe=4)
    assert backend.pool_running
    np.testing.assert_array_equal(revived.ids, reference.ids)
    np.testing.assert_array_equal(revived.distances, reference.distances)
    backend.close()


def test_shared_layout_absorbs_mutations_without_rehoming():
    """A small add ships as a delta overlay: the base shm segment (and
    its pages) stay exactly where they are — only the overlay segment
    is republished — while results stay byte-identical."""
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    queries = make_queries(index.dim)
    rng = np.random.default_rng(7)
    with ProcessBackend(index, plan=plan, n_workers=2) as backend:
        backend.search(queries, k=5, nprobe=4)
        assert backend.shm_base_rehomes == 1  # the initial build
        name_before = backend._shared_layout.shm_name
        index.add(
            rng.standard_normal((30, index.dim)).astype(np.float32),
            labels=rng.integers(0, N_LABELS, 30),
        )
        got = backend.search(queries, k=5, nprobe=4)
        assert backend._shared_layout.shm_name == name_before
        assert backend.shm_base_rehomes == 1
        assert backend.shm_overlay_syncs >= 1
        assert backend._shared_layout.delta_rows == 30
        reference = SerialBackend(index, plan=plan).search(
            queries, k=5, nprobe=4
        )
        np.testing.assert_array_equal(got.ids, reference.ids)
        np.testing.assert_array_equal(got.distances, reference.distances)


def test_shared_layout_rehomes_on_compaction():
    """Forcing a compaction creates a new generation, and only then is
    the shm segment re-homed."""
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    queries = make_queries(index.dim)
    rng = np.random.default_rng(7)
    with ProcessBackend(index, plan=plan, n_workers=2) as backend:
        backend.search(queries, k=5, nprobe=4)
        name_before = backend._shared_layout.shm_name
        index.add(
            rng.standard_normal((30, index.dim)).astype(np.float32),
            labels=rng.integers(0, N_LABELS, 30),
        )
        backend.search(queries, k=5, nprobe=4)
        stats = backend.kernel.compact()
        assert stats["compacted"] is True
        got = backend.search(queries, k=5, nprobe=4)
        assert backend._shared_layout.shm_name != name_before
        assert backend.shm_base_rehomes == 2
        assert backend._shared_layout.delta_rows == 0
        reference = SerialBackend(index, plan=plan).search(
            queries, k=5, nprobe=4
        )
        np.testing.assert_array_equal(got.ids, reference.ids)
        np.testing.assert_array_equal(got.distances, reference.distances)


def test_invalid_worker_count():
    index = make_index()
    with pytest.raises(ValueError, match="n_workers"):
        ProcessBackend(index, n_workers=0)


def test_single_worker_pool():
    """One worker, handed every task in turn, still matches the oracle."""
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    queries = make_queries(index.dim)
    reference = SerialBackend(index, plan=plan).search(queries, k=5, nprobe=4)
    with ProcessBackend(index, plan=plan, n_workers=1) as backend:
        got = backend.search(queries, k=5, nprobe=4)
        np.testing.assert_array_equal(got.ids, reference.ids)
        np.testing.assert_array_equal(got.distances, reference.distances)
        assert not backend.fallback_active


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity calls and at least two usable CPUs",
)
def test_workers_are_pinned_one_cpu_each_round_robin():
    """Every worker — a respawned one too — sits on one CPU of the
    parent's set, neighbours on different ones; the parent keeps its
    own affinity. Unpinned, the kernel left both workers of a 2-CPU box
    on one CPU for seconds at a time (see ``_pin_to_own_cpu``)."""
    cpus = sorted(os.sched_getaffinity(0))
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    queries = make_queries(index.dim)
    expected = [{cpus[w % len(cpus)]} for w in range(3)]
    with ProcessBackend(index, plan=plan, n_workers=3) as backend:
        backend.search(queries, k=5, nprobe=4)
        assert [os.sched_getaffinity(p.pid) for p in backend._procs] == expected
        victim = backend._procs[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        backend.search(queries, k=5, nprobe=4)
        assert [os.sched_getaffinity(p.pid) for p in backend._procs] == expected
        assert os.sched_getaffinity(0) == set(cpus)


# ---------------------------------------------------------------------------
# Supervision + fallback
# ---------------------------------------------------------------------------


def test_worker_crash_between_batches_respawns():
    """A single dead worker is repaired in place, not fallen back on."""
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    queries = make_queries(index.dim)
    reference = SerialBackend(index, plan=plan).search(queries, k=5, nprobe=4)

    with ProcessBackend(index, plan=plan, n_workers=2) as backend:
        backend.search(queries, k=5, nprobe=4)
        victim = backend._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)

        got = backend.search(queries, k=5, nprobe=4)  # repaired in place
        assert not backend.fallback_active
        assert backend.pool_running
        assert all(p.is_alive() for p in backend._procs)
        assert backend.fault_counters.worker_respawns >= 1
        np.testing.assert_array_equal(got.ids, reference.ids)
        np.testing.assert_array_equal(got.distances, reference.distances)


def test_whole_pool_crash_falls_back_to_serial():
    """Total pool loss is the crash that flips to the fallback: the
    serial loop, which answers with the oracle's bytes, degraded mode
    included."""
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    queries = make_queries(index.dim)
    reference = SerialBackend(index, plan=plan).search(queries, k=5, nprobe=4)

    with ProcessBackend(index, plan=plan, n_workers=2) as backend:
        backend.search(queries, k=5, nprobe=4)
        for victim in list(backend._procs):
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)

        got = backend.search(queries, k=5, nprobe=4)  # transparently serial
        assert backend.fallback_active
        assert not backend.pool_running
        np.testing.assert_array_equal(got.ids, reference.ids)
        np.testing.assert_array_equal(got.distances, reference.distances)

        cov_ref = np.zeros((queries.shape[0], 2), dtype=np.int64)
        cov_got = np.zeros((queries.shape[0], 2), dtype=np.int64)
        ref2 = SerialBackend(index, plan=plan).search(
            queries, k=5, nprobe=4, skip_shards={0}, coverage=cov_ref
        )
        got2 = backend.search(
            queries, k=5, nprobe=4, skip_shards={0}, coverage=cov_got
        )
        np.testing.assert_array_equal(got2.ids, ref2.ids)
        np.testing.assert_array_equal(cov_got, cov_ref)
        assert not backend.pool_running  # the fallback started no pool


def test_worker_crash_mid_query_completes_on_pool():
    """A chaos kill mid-batch requeues + respawns; no fallback."""
    from repro.cluster.host_faults import (
        DelayScan,
        HostFaultInjector,
        KillWorker,
    )

    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    queries = make_queries(index.dim)
    reference = SerialBackend(index, plan=plan).search(queries, k=5, nprobe=4)

    with ProcessBackend(index, plan=plan, n_workers=2) as backend:
        # Worker 0 dies as it starts its first task, which the parent
        # hands it with the batch's first dispatch.
        backend.chaos = HostFaultInjector(
            kills=[KillWorker(worker=0, at_task=0)],
            delays=[DelayScan(seconds=0.002, worker=1)],
        )
        got = backend.search(queries, k=5, nprobe=4)
        assert not backend.fallback_active
        assert backend.fault_counters.worker_respawns >= 1
        assert backend.fault_counters.tasks_requeued >= 1
        assert "kill:worker=0" in backend.chaos.fired
        np.testing.assert_array_equal(got.ids, reference.ids)
        np.testing.assert_array_equal(got.distances, reference.distances)

        # The respawned pool keeps serving identically, still no fallback.
        again = backend.search(queries, k=5, nprobe=4)
        assert not backend.fallback_active
        np.testing.assert_array_equal(again.ids, reference.ids)


def test_worker_killed_while_scanning_is_requeued_and_respawned(
    monkeypatch,
):
    """A SIGKILL that lands while a worker runs its task: the parent
    sees the death through the worker's sentinel, puts the held task
    back and respawns the slot, and the batch completes on the pool.

    ``DelayScan`` holds worker 0 in its first task; the patched chaos
    hook (inherited by the forked workers) signals when worker 0 has
    started it, so the kill is ordered by that event, not by a sleep.
    """
    import multiprocessing as mp

    import repro.core.executor.process as process
    from repro.cluster.host_faults import DelayScan, HostFaultInjector

    if "fork" not in mp.get_all_start_methods():
        pytest.skip("the started-signal reaches workers by fork")
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    queries = make_queries(index.dim)
    reference = SerialBackend(index, plan=plan).search(queries, k=5, nprobe=4)

    started = mp.get_context("fork").Event()
    real_chaos = process.apply_task_chaos

    def signalling_chaos(spec, worker, ordinal):
        delay = real_chaos(spec, worker, ordinal)
        if worker == 0 and delay is not None:
            started.set()
        return delay

    monkeypatch.setattr(process, "apply_task_chaos", signalling_chaos)
    with ProcessBackend(
        index, plan=plan, n_workers=2, start_method="fork"
    ) as backend:
        backend.search(queries, k=5, nprobe=4)  # pool up, layout attached
        backend.chaos = HostFaultInjector(
            delays=[DelayScan(seconds=600.0, worker=0)]
        )
        out = {}
        search = threading.Thread(
            target=lambda: out.update(
                got=backend.search(queries, k=5, nprobe=4)
            )
        )
        search.start()
        assert started.wait(timeout=60.0)
        victim = backend._procs[0]
        backend.chaos = None  # the respawned worker 0 runs at speed
        os.kill(victim.pid, signal.SIGKILL)
        search.join(timeout=300.0)
        assert not search.is_alive()
        assert not backend.fallback_active
        assert backend.fault_counters.worker_respawns == 1
        assert backend.fault_counters.tasks_requeued == 1
        assert backend._procs[0] is not victim
        assert all(p.is_alive() for p in backend._procs)
        np.testing.assert_array_equal(out["got"].ids, reference.ids)
        np.testing.assert_array_equal(
            out["got"].distances, reference.distances
        )


def test_shared_memory_unavailable_falls_back(monkeypatch):
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    queries = make_queries(index.dim)
    reference = SerialBackend(index, plan=plan).search(queries, k=5, nprobe=4)

    def no_shm(cls, packed):
        raise OSError("shared memory unavailable")

    monkeypatch.setattr(
        SharedShardPackedBase, "from_packed", classmethod(no_shm)
    )
    with ProcessBackend(index, plan=plan, n_workers=2) as backend:
        got = backend.search(queries, k=5, nprobe=4)
        assert backend.fallback_active
        assert not backend.pool_running
        np.testing.assert_array_equal(got.ids, reference.ids)
        np.testing.assert_array_equal(got.distances, reference.distances)


def test_chaos_shm_drop_falls_back_exact_and_leaves_no_segment():
    """A dropped shared layout must not leave the kernel scanning it.

    The drop unlinks the segment the kernel's packed layout also lives
    in; the thread fallback has to rebuild, not read the closed mapping.
    """
    from repro.cluster.host_faults import DropSharedMemory, HostFaultInjector

    rng = np.random.default_rng(0)
    base = rng.standard_normal((1500, 24)).astype(np.float32)
    queries = rng.standard_normal((16, 24)).astype(np.float32)
    config = HarmonyConfig(
        n_machines=4, nlist=16, nprobe=4, backend="process", n_workers=2
    )
    oracle_db = HarmonyDB(dim=24, config=config.replace(backend="serial"))
    oracle_db.build(base, sample_queries=queries)
    oracle, _ = oracle_db.search(queries, k=5)
    oracle_db.close()

    segments_before = set(os.listdir("/dev/shm"))
    db = HarmonyDB(dim=24, config=config)
    db.build(base, sample_queries=queries)
    try:
        db.search(queries, k=5)  # pool up, layout re-homed into shm
        backend = db._get_host_backend()
        assert backend.shared_layout_nbytes() > 0
        db.set_host_faults(
            HostFaultInjector(shm_drops=[DropSharedMemory(at_batch=0)])
        )
        result, _ = db.search(queries, k=5)
        assert backend.fallback_active
        assert backend.shared_layout_nbytes() == 0
        np.testing.assert_array_equal(result.ids, oracle.ids)
        np.testing.assert_array_equal(result.distances, oracle.distances)
        assert set(os.listdir("/dev/shm")) <= segments_before
    finally:
        db.close()


def test_process_module_holds_no_scan_class():
    """The pool workers scan through the kernel's driver, not a copy."""
    import repro.core.executor.process as process

    for name in (
        "ShardScan", "ShardGroupScan", "SQ8ShardScan", "SQ8ShardGroupScan"
    ):
        assert not hasattr(process, name)


# ---------------------------------------------------------------------------
# Dispatch and observability
# ---------------------------------------------------------------------------


def test_a_slowed_worker_is_handed_fewer_tasks():
    """A straggler needs no watchdog and no thief: the parent hands a
    worker its next task only when its last one returns, so the slowed
    worker runs fewer of the batch's tasks (counted from the
    ``worker-scan`` spans), and nothing is requeued or falls back."""
    from repro.cluster.host_faults import DelayScan, HostFaultInjector
    from repro.obs.trace import Tracer

    index = make_index(n=1200, nlist=24)
    plan = build_plan(index, n_machines=4, n_vector_shards=4, n_dim_blocks=1)
    queries = make_queries(index.dim, nq=24)
    reference = SerialBackend(index, plan=plan).search(queries, k=5, nprobe=8)
    with ProcessBackend(index, plan=plan, n_workers=2) as backend:
        backend.run(queries, k=5, nprobe=8)  # pool up, layout attached
        backend.chaos = HostFaultInjector(
            delays=[DelayScan(seconds=0.05, worker=0)]
        )
        backend.tracer = Tracer()
        got, report = backend.run(queries, k=5, nprobe=8)
        scans = [0, 0]
        for span in report.trace.spans:
            if span.name == "worker-scan":
                scans[span.arg("worker")] += 1
        assert sum(scans) >= 6
        assert scans[0] < scans[1]
        assert not backend.fallback_active
        assert report.fault_stats is None  # no respawn, requeue, abandon
        assert report.worker_steals is None
        np.testing.assert_array_equal(got.ids, reference.ids)
        np.testing.assert_array_equal(got.distances, reference.distances)


def test_worker_spans_recorded_on_process_lanes():
    from repro.core.executor.process import PROCESS_LANE_BASE
    from repro.obs.trace import Tracer

    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    queries = make_queries(index.dim)
    with ProcessBackend(index, plan=plan, n_workers=2) as backend:
        backend.tracer = Tracer()
        backend.search(queries, k=5, nprobe=4)
        spans = [
            s for s in backend.tracer.trace().spans
            if s.name == "worker-scan"
        ]
        assert spans, "expected per-worker wall spans"
        assert all(s.node >= PROCESS_LANE_BASE for s in spans)
        assert all(s.end >= s.start for s in spans)


# ---------------------------------------------------------------------------
# ThreadBackend persistent pool (the hoisted executor)
# ---------------------------------------------------------------------------


def test_thread_backend_pool_persists_and_revives():
    index = make_index()
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    queries = make_queries(index.dim)
    backend = ThreadBackend(index, plan=plan, n_threads=2)
    assert backend._pool is None  # lazy: no threads until first search
    backend.search(queries, k=5, nprobe=4)
    pool = backend._pool
    assert pool is not None
    backend.search(queries, k=5, nprobe=4)
    assert backend._pool is pool  # reused across calls
    backend.close()
    assert backend._pool is None
    backend.close()  # idempotent
    result = backend.search(queries, k=5, nprobe=4)  # revives
    assert backend._pool is not None
    reference = SerialBackend(index, plan=plan).search(queries, k=5, nprobe=4)
    np.testing.assert_array_equal(result.ids, reference.ids)
    backend.close()


# ---------------------------------------------------------------------------
# Config / HarmonyDB integration
# ---------------------------------------------------------------------------


def test_config_accepts_process_backend():
    config = HarmonyConfig(backend="process", n_workers=2)
    assert config.backend == "process"
    with pytest.raises(ValueError, match="n_workers"):
        HarmonyConfig(backend="process", n_workers=0)
    with pytest.raises(ValueError, match="supported backends"):
        HarmonyConfig(backend="gpu")


def test_harmony_db_process_backend_end_to_end(tmp_path):
    rng = np.random.default_rng(0)
    base = rng.standard_normal((1500, 24)).astype(np.float32)
    queries = rng.standard_normal((16, 24)).astype(np.float32)
    config = HarmonyConfig(
        n_machines=4, nlist=16, nprobe=4, backend="process", n_workers=2
    )
    db = HarmonyDB(dim=24, config=config)
    db.build(base, sample_queries=queries)
    result, report = db.search(queries, k=5)
    assert "process backend" in report.plan_summary
    assert report.layout_bytes > 0
    assert report.worker_steals is None

    serial_db = HarmonyDB(
        dim=24,
        config=config.replace(backend="serial"),
    )
    serial_db.build(base, sample_queries=queries)
    ref, _ = serial_db.search(queries, k=5)
    np.testing.assert_array_equal(result.ids, ref.ids)
    np.testing.assert_array_equal(result.distances, ref.distances)

    # Streaming ingest rebuilds the backend (and its pool) cleanly.
    extra = rng.standard_normal((40, 24)).astype(np.float32)
    db.add(extra)
    serial_db.add(extra)
    result2, _ = db.search(queries, k=5)
    ref2, _ = serial_db.search(queries, k=5)
    np.testing.assert_array_equal(result2.ids, ref2.ids)

    # save() round-trips the process backend config.
    path = tmp_path / "deploy.npz"
    db.save(path)
    loaded = HarmonyDB.load(path)
    assert loaded.config.backend == "process"
    assert loaded.config.n_workers == 2
    result3, _ = loaded.search(queries, k=5)
    np.testing.assert_array_equal(result3.ids, ref2.ids)
    for handle in (db, serial_db, loaded):
        handle.close()
        handle.close()  # idempotent


def test_report_metrics_publishes_layout_bytes():
    from repro.obs.metrics import report_metrics

    rng = np.random.default_rng(0)
    base = rng.standard_normal((800, 16)).astype(np.float32)
    queries = rng.standard_normal((8, 16)).astype(np.float32)
    config = HarmonyConfig(
        n_machines=2, nlist=8, nprobe=4, backend="process", n_workers=2
    )
    with HarmonyDB(dim=16, config=config) as db:
        db.build(base, sample_queries=queries)
        _, report = db.search(queries, k=5)
        registry = report_metrics(report)
        assert "harmony_layout_bytes" in registry.to_prometheus()
        dumped = registry.to_dict()
        assert dumped["harmony_layout_bytes"]["series"][0]["value"] > 0
        assert "harmony_worker_steals_total" not in dumped
