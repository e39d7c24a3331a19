"""Tests for streaming inserts and deletes (index + HarmonyDB)."""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB
from repro.data.synthetic import gaussian_blobs
from repro.index.ivf import IVFFlatIndex


@pytest.fixture()
def index(tiny_data):
    ix = IVFFlatIndex(dim=32, nlist=16, seed=0)
    ix.train(tiny_data)
    ix.add(tiny_data)
    return ix


class TestIndexDeletes:
    def test_remove_reduces_nlive(self, index):
        assert index.nlive == index.ntotal
        removed = index.remove_ids(np.array([0, 1, 2]))
        assert removed == 3
        assert index.nlive == index.ntotal - 3

    def test_remove_idempotent(self, index):
        index.remove_ids(np.array([5]))
        assert index.remove_ids(np.array([5])) == 0

    def test_remove_out_of_range_raises(self, index):
        with pytest.raises(IndexError):
            index.remove_ids(np.array([index.ntotal]))
        with pytest.raises(IndexError):
            index.remove_ids(np.array([-1]))

    def test_remove_empty_noop(self, index):
        assert index.remove_ids(np.empty(0, dtype=np.int64)) == 0

    def test_deleted_never_in_results(self, index, tiny_queries):
        _, ids_before = index.search(tiny_queries, k=5, nprobe=16)
        victims = np.unique(ids_before[ids_before >= 0])[:20]
        index.remove_ids(victims)
        _, ids_after = index.search(tiny_queries, k=5, nprobe=16)
        assert not (set(ids_after[ids_after >= 0]) & set(victims))

    def test_deleted_excluded_from_lists(self, index):
        target = index.list_members(0)[0]
        index.remove_ids(np.array([target]))
        assert target not in index.list_members(0)
        assert target not in index.candidates(np.array([0]))

    def test_list_sizes_reflect_deletes(self, index):
        before = index.list_sizes().sum()
        index.remove_ids(np.arange(10))
        assert index.list_sizes().sum() == before - 10

    def test_is_deleted_flags(self, index):
        index.remove_ids(np.array([3]))
        flags = index.is_deleted(np.array([2, 3, 4]))
        np.testing.assert_array_equal(flags, [False, True, False])

    def test_delete_all_of_a_list(self, index, tiny_queries):
        index.remove_ids(index.list_members(0))
        assert index.list_members(0).size == 0
        # Search still works.
        _, ids = index.search(tiny_queries, k=5, nprobe=16)
        assert ids.shape == (len(tiny_queries), 5)


class TestHarmonyDBMutations:
    @pytest.fixture()
    def db(self, tiny_data, tiny_queries):
        db = HarmonyDB(
            dim=32, config=HarmonyConfig(n_machines=4, nlist=16, nprobe=4)
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        return db

    def test_add_before_build_raises(self):
        db = HarmonyDB(dim=8)
        with pytest.raises(RuntimeError, match="build"):
            db.add(np.ones((2, 8)))

    def test_remove_before_build_raises(self):
        db = HarmonyDB(dim=8)
        with pytest.raises(RuntimeError, match="build"):
            db.remove(np.array([0]))

    def test_add_visible_and_exact(self, db, tiny_queries):
        extra = gaussian_blobs(50, 32, n_blobs=8, seed=99)
        db.add(extra)
        assert db.ntotal == 450
        result, _ = db.search(tiny_queries, k=5)
        _, ref_ids = db.index.search(tiny_queries, k=5, nprobe=4)
        np.testing.assert_array_equal(result.ids, ref_ids)

    def test_added_vector_findable(self, db):
        # A far-away vector added post-build must be its own nearest hit.
        outlier = np.full((1, 32), 40.0, dtype=np.float32)
        db.add(outlier)
        new_id = db.ntotal - 1
        result, _ = db.search(outlier, k=1)
        assert result.ids[0, 0] == new_id

    def test_remove_excluded_and_exact(self, db, tiny_queries):
        result, _ = db.search(tiny_queries, k=5)
        victims = np.unique(result.ids[result.ids >= 0])[:15]
        removed = db.remove(victims)
        assert removed == 15
        after, _ = db.search(tiny_queries, k=5)
        assert not (set(after.ids[after.ids >= 0]) & set(victims))
        _, ref_ids = db.index.search(tiny_queries, k=5, nprobe=4)
        np.testing.assert_array_equal(after.ids, ref_ids)

    def test_remove_nothing_skips_refresh(self, db):
        db.remove(np.empty(0, dtype=np.int64))  # no error, no effect

    def test_add_updates_placement_memory(self, db):
        before = db.index_memory_report()["total_bytes"]
        db.add(gaussian_blobs(200, 32, n_blobs=8, seed=98))
        after = db.index_memory_report()["total_bytes"]
        assert after > before

    def test_mutations_keep_all_modes_consistent(
        self, tiny_data, tiny_queries
    ):
        dbs = {}
        for mode in (Mode.VECTOR, Mode.DIMENSION):
            db = HarmonyDB(
                dim=32,
                config=HarmonyConfig(
                    n_machines=4, nlist=16, nprobe=4, mode=mode
                ),
            )
            db.build(tiny_data, sample_queries=tiny_queries)
            db.add(gaussian_blobs(30, 32, n_blobs=8, seed=77))
            db.remove(np.arange(5))
            dbs[mode] = db.search(tiny_queries, k=5)[0]
        np.testing.assert_array_equal(
            dbs[Mode.VECTOR].ids, dbs[Mode.DIMENSION].ids
        )


class TestDeltaLayoutMaintenance:
    """The LSM write path: delta-only mutations must not invalidate the
    packed layout, and compaction must be invisible to results."""

    @pytest.fixture()
    def host_db(self, tiny_data, tiny_queries):
        db = HarmonyDB(
            dim=32,
            config=HarmonyConfig(
                n_machines=4, nlist=16, nprobe=4, backend="thread",
                n_threads=2,
            ),
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        yield db
        db.close()

    def test_mutation_batch_keeps_layout_and_pool(
        self, host_db, tiny_queries
    ):
        """The acceptance gate: a delta-absorbable mutation batch does
        not rebuild the packed layout (or the backend holding it)."""
        db = host_db
        db.search(tiny_queries, k=5)
        backend = db._host_backend
        assert backend is not None
        kernel = backend.kernel
        layout = kernel.packed_base()
        builds_before = kernel.layout_builds
        for step in range(3):
            db.add(gaussian_blobs(10, 32, n_blobs=8, seed=50 + step))
            db.remove(np.arange(step * 3, step * 3 + 3))
            result, report = db.search(tiny_queries, k=5)
            _, ref_ids = db.index.search(tiny_queries, k=5, nprobe=4)
            np.testing.assert_array_equal(result.ids, ref_ids)
        assert db._host_backend is backend  # pool survived mutations
        assert kernel.packed_base() is layout  # same base generation
        assert kernel.layout_builds == builds_before
        assert kernel.layout_refreshes >= 3
        assert report.delta_rows == 30
        assert report.tombstones_pending == 9
        assert report.layout_generation == layout.generation

    def test_db_compact_merges_and_stays_exact(
        self, host_db, tiny_queries
    ):
        db = host_db
        db.search(tiny_queries, k=5)
        db.add(gaussian_blobs(25, 32, n_blobs=8, seed=60))
        db.remove(np.arange(7))
        before, _ = db.search(tiny_queries, k=5)
        stats = db.compact()
        assert stats["compacted"] is True
        assert stats["delta_rows_merged"] == 25
        assert stats["tombstones_cleared"] == 7
        after, report = db.search(tiny_queries, k=5)
        np.testing.assert_array_equal(after.ids, before.ids)
        np.testing.assert_array_equal(after.distances, before.distances)
        assert report.delta_rows == 0
        assert report.tombstones_pending == 0
        # Nothing pending → explicit compact is a no-op.
        assert db.compact()["compacted"] is False

    def test_compact_before_any_search_is_noop(self, host_db):
        assert host_db.compact()["compacted"] is False

    def test_auto_compact_triggers_on_ratio(self, tiny_data, tiny_queries):
        db = HarmonyDB(
            dim=32,
            config=HarmonyConfig(
                n_machines=4, nlist=16, nprobe=4, backend="serial",
                delta_compact_ratio=0.05,
            ),
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        db.search(tiny_queries, k=5)
        kernel = db._host_backend.kernel
        # 40 rows > 5% of 400: the next search must compact.
        db.add(gaussian_blobs(40, 32, n_blobs=8, seed=61))
        result, report = db.search(tiny_queries, k=5)
        assert report.layout_compactions == 1
        assert report.delta_rows == 0
        assert kernel.layout_compactions == 1
        _, ref_ids = db.index.search(tiny_queries, k=5, nprobe=4)
        np.testing.assert_array_equal(result.ids, ref_ids)
        db.close()

    @pytest.mark.parametrize("backend", ["sim", "serial"])
    def test_write_path_knobs_reach_the_search_kernel(
        self, backend, tiny_data, tiny_queries
    ):
        """One config → kernel mapping: the sim engine's kernel gets
        the write-path knobs (and the routing-cache size) the host
        backends' kernels always got, and ``compact()`` reaches it."""
        db = HarmonyDB(
            dim=32,
            config=HarmonyConfig(
                n_machines=4, nlist=16, nprobe=4, backend=backend,
                auto_compact=False, delta_compact_ratio=0.05,
                routing_cache_size=7,
            ),
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        kernel = db._executor().kernel
        assert kernel.auto_compact is False
        assert kernel.delta_compact_ratio == 0.05
        assert kernel.routing_cache.max_entries == 7
        stats = db.compact()  # before any search: builds, nothing pending
        assert stats["compacted"] is False
        assert stats["generation"] == kernel.packed_base().generation > 0
        db.close()


# ---------------------------------------------------------------------------
# Property matrix: mutation interleavings x backends x precision
# ---------------------------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(1, 12)),
        st.tuples(st.just("remove"), st.integers(1, 8)),
        st.tuples(st.just("compact"), st.just(0)),
        st.tuples(st.just("search"), st.just(0)),
    ),
    min_size=2,
    max_size=6,
)


@pytest.fixture(scope="module")
def saved_index(tiny_data):
    """One trained index, serialized once; examples reload clones so
    each interleaving starts from identical, unshared state."""
    index = IVFFlatIndex(dim=32, nlist=16, seed=0)
    index.train(tiny_data)
    index.add(tiny_data)
    buf = io.BytesIO()
    index.save(buf)
    return buf.getvalue()


@pytest.mark.parametrize("backend", ["serial", "thread", "sim"])
@pytest.mark.parametrize("precision", ["fp32", "sq8"])
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[
        HealthCheck.function_scoped_fixture, HealthCheck.too_slow
    ],
)
@given(ops=_OPS, seed=st.integers(0, 2**16))
def test_interleavings_match_serial_oracle(
    backend, precision, ops, seed, saved_index, tiny_queries
):
    """Arbitrary add/remove/compact/search interleavings stay
    byte-identical to the serial fp32 oracle on every backend and
    scan precision, with deltas and tombstones in play throughout."""
    index = IVFFlatIndex.load(io.BytesIO(saved_index))
    config = HarmonyConfig(
        n_machines=4,
        nlist=16,
        nprobe=4,
        backend=backend,
        n_threads=2,
        scan_precision=precision,
        delta_compact_ratio=0.5,  # keep deltas live across steps
    )
    db = HarmonyDB.from_trained_index(index, config=config)
    rng = np.random.default_rng(seed)
    try:
        for op, arg in ops:
            if op == "add":
                db.add(
                    rng.standard_normal((arg, 32)).astype(np.float32)
                )
            elif op == "remove":
                alive = np.flatnonzero(~db.index.deleted_mask)
                if alive.size:
                    db.remove(
                        rng.choice(
                            alive,
                            size=min(arg, alive.size),
                            replace=False,
                        )
                    )
            elif op == "compact":
                db.compact()
            else:
                result, _ = db.search(tiny_queries, k=5)
                ref_dist, ref_ids = db.index.search(
                    tiny_queries, k=5, nprobe=4
                )
                np.testing.assert_array_equal(result.ids, ref_ids)
        # Always end on a verified search.
        result, _ = db.search(tiny_queries, k=5)
        _, ref_ids = db.index.search(tiny_queries, k=5, nprobe=4)
        np.testing.assert_array_equal(result.ids, ref_ids)
    finally:
        db.close()


@pytest.mark.parametrize("precision", ["fp32", "sq8"])
def test_interleavings_process_backend(
    precision, saved_index, tiny_queries
):
    """The process pool (one persistent pool across the whole
    interleaving) stays byte-identical through deltas, tombstones and
    a mid-sequence compaction, without the shm base ever re-homing."""
    index = IVFFlatIndex.load(io.BytesIO(saved_index))
    config = HarmonyConfig(
        n_machines=4,
        nlist=16,
        nprobe=4,
        backend="process",
        n_workers=2,
        scan_precision=precision,
        delta_compact_ratio=0.5,
    )
    db = HarmonyDB.from_trained_index(index, config=config)
    rng = np.random.default_rng(9)
    try:
        db.search(tiny_queries, k=5)
        backend = db._host_backend
        for step in range(3):
            db.add(rng.standard_normal((12, 32)).astype(np.float32))
            alive = np.flatnonzero(~db.index.deleted_mask)
            db.remove(rng.choice(alive, size=4, replace=False))
            result, _ = db.search(tiny_queries, k=5)
            _, ref_ids = db.index.search(tiny_queries, k=5, nprobe=4)
            np.testing.assert_array_equal(result.ids, ref_ids)
        assert backend.shm_base_rehomes == 1  # never re-homed
        assert backend.shm_overlay_syncs >= 3
        db.compact()
        result, _ = db.search(tiny_queries, k=5)
        _, ref_ids = db.index.search(tiny_queries, k=5, nprobe=4)
        np.testing.assert_array_equal(result.ids, ref_ids)
        assert backend.shm_base_rehomes == 2  # exactly the compaction
        assert not backend.fallback_active
    finally:
        db.close()
