"""Degenerate and boundary-condition coverage for the whole stack."""

import numpy as np
import pytest

from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB
from repro.data.synthetic import gaussian_blobs


@pytest.fixture(scope="module")
def small():
    data = gaussian_blobs(400, 16, n_blobs=4, seed=1)
    queries = gaussian_blobs(410, 16, n_blobs=4, seed=1)[400:]
    return data, queries


def build(data, queries, **config_kwargs):
    defaults = dict(n_machines=4, nlist=8, nprobe=2, seed=0)
    defaults.update(config_kwargs)
    db = HarmonyDB(dim=data.shape[1], config=HarmonyConfig(**defaults))
    db.build(data, sample_queries=queries)
    return db


class TestDegenerateDeployments:
    def test_single_machine_cluster(self, small):
        """A 1-machine 'distributed' deployment is valid and exact."""
        data, queries = small
        db = build(data, queries, n_machines=1)
        result, report = db.search(queries, k=3)
        _, ref = db.index.search(queries, k=3, nprobe=2)
        np.testing.assert_array_equal(result.ids, ref)
        assert report.worker_loads.shape == (1,)

    def test_single_query(self, small):
        data, queries = small
        db = build(data, queries)
        result, report = db.search(queries[0], k=3)
        assert result.ids.shape == (1, 3)
        assert report.n_queries == 1

    def test_k_exceeds_candidates_pads(self, small):
        data, queries = small
        db = build(data, queries, nprobe=1)
        result, _ = db.search(queries, k=200)
        _, ref = db.index.search(queries, k=200, nprobe=1)
        np.testing.assert_array_equal(result.ids, ref)
        assert (result.ids == -1).any()
        assert np.all(np.isinf(result.distances[result.ids == -1]))

    def test_k_equals_one(self, small):
        data, queries = small
        db = build(data, queries)
        result, _ = db.search(queries, k=1)
        _, ref = db.index.search(queries, k=1, nprobe=2)
        np.testing.assert_array_equal(result.ids, ref)

    def test_nprobe_exceeds_nlist_capped(self, small):
        data, queries = small
        db = build(data, queries)
        result, _ = db.search(queries, k=3, nprobe=1000)
        _, ref = db.index.search(queries, k=3, nprobe=1000)
        np.testing.assert_array_equal(result.ids, ref)

    def test_everything_deleted_returns_padding(self, small):
        data, queries = small
        db = build(data, queries)
        db.remove(np.arange(len(data)))
        result, _ = db.search(queries, k=5)
        assert np.all(result.ids == -1)

    def test_prewarm_larger_than_list(self, small):
        """Prewarm gracefully caps at the nearest list's size."""
        data, queries = small
        db = build(data, queries, prewarm_size=100_000)
        result, _ = db.search(queries, k=3)
        _, ref = db.index.search(queries, k=3, nprobe=2)
        np.testing.assert_array_equal(result.ids, ref)

    def test_query_dim_mismatch_raises(self, small):
        data, queries = small
        db = build(data, queries)
        with pytest.raises(ValueError, match="dimension 7, the index has 16"):
            db.search(np.ones((2, 7)), k=3)

    def test_three_dimensional_queries_name_their_shape(self, small):
        """A (2, 3, 16) block has rows of the index's width, yet is no
        batch: both entry points name the shape, not a dimension."""
        data, queries = small
        block = np.ones((2, 3, 16))
        with build(data, queries, backend="serial") as db:
            with pytest.raises(ValueError, match=r"shape \(2, 3, 16\)"):
                db.search(block, k=3)
            with db.serve() as server:
                with pytest.raises(ValueError, match=r"shape \(2, 3, 16\)"):
                    server.submit(block, k=3)


_BACKENDS = ("serial", "process", "sim")


@pytest.mark.parametrize(
    "backend, emptied",
    [pytest.param(b, None, id=b) for b in _BACKENDS]
    + [
        pytest.param(b, (precision, nq), id=f"{b}-emptied-{precision}-{nq}q")
        for b in _BACKENDS
        for precision in ("fp32", "sq8")
        for nq in (1, 10)
    ],
)
def test_k_beyond_ntotal_pads_with_minus_one_at_inf(small, backend, emptied):
    """With every list probed each query sees all ``ntotal`` vectors; a
    larger ``k`` returns ``(nq, k)`` rows whose first ``ntotal`` entries
    are every vector, ascending, and whose tail is id -1 at ``inf``. On
    the process pool the rows come back from several chunks, each
    written in place. An index that ``remove`` has emptied is the
    ``ntotal = 0`` case, for one query and for a batch in either scan
    precision: every row is all tail, and the simulator opens no scan."""
    data, queries = small
    pool = {"n_workers": 2} if backend == "process" else {}
    precision, nq = emptied or ("fp32", len(queries))
    n = 0 if emptied else len(data)
    with build(
        data, queries, backend=backend, scan_precision=precision, **pool
    ) as db:
        if emptied:
            db.remove(np.arange(len(data)))
        batch = queries[:nq]
        result, _ = db.search(batch, k=n + 7, nprobe=db.config.nlist)
        shape = (nq, n + 7)
        assert result.ids.shape == result.distances.shape == shape
        for row_ids, row_dist in zip(result.ids, result.distances):
            assert sorted(row_ids[:n]) == list(range(n))
            assert np.all(np.isfinite(row_dist[:n]))
            assert np.all(np.diff(row_dist[:n]) >= 0)
            assert np.all(row_ids[n:] == -1)
            assert np.all(row_dist[n:] == np.inf)
        _, ref = db.index.search(batch, k=n + 7, nprobe=db.config.nlist)
        np.testing.assert_array_equal(result.ids, ref)


@pytest.mark.parametrize("backend", ["serial", "process", "sim"])
def test_nprobe_beyond_nlist_is_clamped_to_nlist(small, backend):
    """An ``nprobe`` above ``nlist`` probes every list once: the answer
    is the ``nprobe = nlist`` answer, bit for bit."""
    data, queries = small
    pool = {"n_workers": 2} if backend == "process" else {}
    with build(data, queries, backend=backend, **pool) as db:
        nlist = db.config.nlist
        over, _ = db.search(queries, k=5, nprobe=10 * nlist)
        full, _ = db.search(queries, k=5, nprobe=nlist)
        np.testing.assert_array_equal(over.ids, full.ids)
        np.testing.assert_array_equal(over.distances, full.distances)
        assert np.all(over.ids >= 0)


@pytest.mark.parametrize("enable_cache", [False, True])
# "thread" is the retired thread pool's spelling, which builds serial.
@pytest.mark.parametrize("backend", ["serial", "thread", "process", "sim"])
def test_non_finite_query_is_refused_and_never_cached(
    small, backend, enable_cache
):
    """``search`` refuses a NaN / inf row on every backend, before the
    cache or a scan sees it — the same check ``HarmonyServer.submit``
    runs per request."""
    data, queries = small
    pool = {"n_workers": 2} if backend == "process" else {}
    with build(
        data, queries, backend=backend, enable_cache=enable_cache, **pool
    ) as db:
        for bad in (np.nan, np.inf, -np.inf):
            poisoned = queries[:3].copy()
            poisoned[1, 5] = bad
            with pytest.raises(ValueError, match="non-finite"):
                db.search(poisoned, k=3)
        if enable_cache:
            stats = db.result_cache.stats()
            assert (stats.entries, stats.hits, stats.misses) == (0, 0, 0)
        result, _ = db.search(queries, k=3)
        _, ref = db.index.search(queries, k=3, nprobe=2)
        np.testing.assert_array_equal(result.ids, ref)


@pytest.mark.parametrize("backend", ["serial", "process", "sim"])
def test_non_finite_base_rows_are_refused(small, backend):
    """``build`` and ``add`` refuse a NaN / inf base row on every
    backend: the index checks before it trains or appends, so a refused
    ``add`` leaves the version, the rows and the answers as they were."""
    data, queries = small
    pool = {"n_workers": 2} if backend == "process" else {}
    poisoned = data.copy()
    poisoned[7, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        build(poisoned, queries, backend=backend, **pool)
    with build(data, queries, backend=backend, **pool) as db:
        before, _ = db.search(queries, k=3)
        version, ntotal = db.index.version, db.index.ntotal
        for bad in (np.nan, np.inf, -np.inf):
            rows = data[:4].copy()
            rows[2, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                db.add(rows)
        assert (db.index.version, db.index.ntotal) == (version, ntotal)
        after, _ = db.search(queries, k=3)
        np.testing.assert_array_equal(after.ids, before.ids)
        np.testing.assert_array_equal(after.distances, before.distances)


@pytest.mark.parametrize("enable_cache", [False, True])
@pytest.mark.parametrize("backend", ["serial", "process", "sim"])
def test_k_must_be_a_positive_integer(small, backend, enable_cache):
    """``search`` and ``submit`` run one check on ``k``: a float, a
    string or a non-positive ``k`` is refused with the same named error
    on every backend, cached or not, and a numpy integer is accepted."""
    data, queries = small
    pool = {"n_workers": 2} if backend == "process" else {}
    with build(
        data, queries, backend=backend, enable_cache=enable_cache, **pool
    ) as db:
        for bad in (2.5, np.float64(3.0), "3", None, 0, -1):
            with pytest.raises(ValueError, match="k must be a positive"):
                db.search(queries[:3], k=bad)
        with db.serve() as server:
            for bad in (2.5, 0):
                with pytest.raises(ValueError, match="k must be a positive"):
                    server.submit(queries[0], k=bad)
            served = server.submit(queries[0], k=np.int64(3)).result(30)
        result, _ = db.search(queries[:3], k=np.int64(3))
        _, ref = db.index.search(queries[:3], k=3, nprobe=2)
        np.testing.assert_array_equal(result.ids, ref)
        np.testing.assert_array_equal(served.ids, ref[0])


class TestDuplicateAndConstantData:
    def test_duplicate_vectors_tie_break_by_id(self):
        """Many identical rows: the engine must return the smallest ids,
        exactly like the reference scan."""
        base = np.ones((60, 8), dtype=np.float32)
        base[30:] = 2.0  # two point-masses
        queries = np.ones((4, 8), dtype=np.float32)
        db = HarmonyDB(
            dim=8, config=HarmonyConfig(n_machines=4, nlist=2, nprobe=2)
        )
        db.build(base, sample_queries=queries)
        result, _ = db.search(queries, k=5)
        _, ref = db.index.search(queries, k=5, nprobe=2)
        np.testing.assert_array_equal(result.ids, ref)
        np.testing.assert_array_equal(result.ids[0], [0, 1, 2, 3, 4])

    def test_constant_dataset(self):
        base = np.full((40, 8), 3.0, dtype=np.float32)
        queries = np.full((3, 8), 3.0, dtype=np.float32)
        db = HarmonyDB(
            dim=8, config=HarmonyConfig(n_machines=2, nlist=2, nprobe=2)
        )
        db.build(base, sample_queries=queries)
        result, _ = db.search(queries, k=4)
        np.testing.assert_array_equal(result.ids[0], [0, 1, 2, 3])
        np.testing.assert_allclose(result.distances, 0.0, atol=1e-9)

    def test_tiny_dimensionality(self):
        """dim=2 caps the dimension grids; engine still exact."""
        rng = np.random.default_rng(0)
        base = rng.standard_normal((120, 2)).astype(np.float32)
        queries = rng.standard_normal((5, 2)).astype(np.float32)
        for mode in (Mode.HARMONY, Mode.DIMENSION):
            db = HarmonyDB(
                dim=2,
                config=HarmonyConfig(
                    n_machines=2, nlist=4, nprobe=2, mode=mode
                ),
            )
            db.build(base, sample_queries=queries)
            result, _ = db.search(queries, k=3)
            _, ref = db.index.search(queries, k=3, nprobe=2)
            np.testing.assert_array_equal(result.ids, ref)
