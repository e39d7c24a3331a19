"""End-to-end tests for inner-product and cosine metrics.

These exercise the Cauchy-Schwarz pruning bound (the non-monotone
metric path) through the whole stack: engine, modes, threaded
searcher, prewarm.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB
from repro.core.executor.threads import ThreadBackend
from repro.data.synthetic import gaussian_blobs
from repro.index.ivf import IVFFlatIndex


@pytest.fixture(scope="module", params=["ip", "cosine"])
def metric(request):
    return request.param


@pytest.fixture(scope="module")
def data():
    # Shift off the origin so inner products are not centred on zero.
    base = gaussian_blobs(800, 24, n_blobs=6, cluster_std=0.5, seed=13)
    return (base + 0.5).astype(np.float32)


@pytest.fixture(scope="module")
def queries():
    q = gaussian_blobs(830, 24, n_blobs=6, cluster_std=0.5, seed=13)[800:]
    return (q + 0.5).astype(np.float32)


@pytest.fixture(scope="module")
def index(data, metric):
    ix = IVFFlatIndex(dim=24, nlist=8, metric=metric, seed=0)
    ix.train(data)
    ix.add(data)
    return ix


class TestNonL2EndToEnd:
    @pytest.mark.parametrize(
        "mode", [Mode.HARMONY, Mode.VECTOR, Mode.DIMENSION]
    )
    def test_engine_matches_reference(
        self, index, queries, metric, mode
    ):
        ref_d, ref_i = index.search(queries, k=5, nprobe=4)
        db = HarmonyDB.from_trained_index(
            index,
            config=HarmonyConfig(
                n_machines=4, nlist=8, nprobe=4, metric=metric, mode=mode
            ),
            cluster=Cluster(4),
            sample_queries=queries,
        )
        result, _ = db.search(queries, k=5)
        np.testing.assert_array_equal(result.ids, ref_i)
        np.testing.assert_allclose(result.distances, ref_d, rtol=1e-6)

    def test_cs_bound_pruning_actually_prunes(self, index, queries, metric):
        """The inner-product path must still achieve nonzero pruning."""
        db = HarmonyDB.from_trained_index(
            index,
            config=HarmonyConfig(
                n_machines=4,
                nlist=8,
                nprobe=4,
                metric=metric,
                mode=Mode.DIMENSION,
            ),
            cluster=Cluster(4),
            sample_queries=queries,
        )
        _, report = db.search(queries, k=5)
        assert report.pruning is not None
        # Pruning may be weak under the CS bound but never negative,
        # and the first slice never prunes.
        ratios = report.pruning.ratios()
        assert ratios[0] == 0.0
        assert np.all(ratios >= 0.0)

    def test_threaded_searcher_matches(self, index, queries):
        searcher = ThreadBackend(index, n_threads=4)
        result = searcher.search(queries, k=5, nprobe=4)
        _, ref_i = index.search(queries, k=5, nprobe=4)
        np.testing.assert_array_equal(result.ids, ref_i)

    def test_pruning_off_identical(self, index, queries, metric):
        db_on = HarmonyDB.from_trained_index(
            index,
            config=HarmonyConfig(
                n_machines=4, nlist=8, nprobe=4, metric=metric,
                mode=Mode.DIMENSION,
            ),
            cluster=Cluster(4),
            sample_queries=queries,
        )
        db_off = HarmonyDB.from_trained_index(
            index,
            config=HarmonyConfig(
                n_machines=4, nlist=8, nprobe=4, metric=metric,
                mode=Mode.DIMENSION, enable_pruning=False,
            ),
            cluster=Cluster(4),
            sample_queries=queries,
        )
        r_on, _ = db_on.search(queries, k=5)
        r_off, _ = db_off.search(queries, k=5)
        np.testing.assert_array_equal(r_on.ids, r_off.ids)


class TestMetricValidation:
    def test_from_trained_index_metric_mismatch(self, index):
        with pytest.raises(ValueError, match="metric"):
            HarmonyDB.from_trained_index(
                index,
                config=HarmonyConfig(n_machines=4, nlist=8, metric="l2"),
            )

    def test_from_trained_index_nlist_mismatch(self, index, metric):
        with pytest.raises(ValueError, match="nlist"):
            HarmonyDB.from_trained_index(
                index,
                config=HarmonyConfig(n_machines=4, nlist=32, metric=metric),
            )

    def test_from_trained_index_untrained(self, metric):
        with pytest.raises(RuntimeError, match="trained"):
            HarmonyDB.from_trained_index(
                IVFFlatIndex(dim=8, nlist=4, metric=metric)
            )
