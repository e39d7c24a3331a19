"""Unit tests for repro.baselines.auncel."""

import numpy as np
import pytest

from repro.baselines.auncel import AuncelLike
from repro.data.ground_truth import exact_knn


@pytest.fixture(scope="module")
def built(tiny_data_module):
    engine = AuncelLike(dim=32, nlist=16, n_machines=4, epsilon=0.5, seed=0)
    engine.build(tiny_data_module)
    return engine


@pytest.fixture(scope="module")
def tiny_data_module():
    from repro.data.synthetic import gaussian_blobs

    return gaussian_blobs(400, 32, n_blobs=8, cluster_std=0.4, seed=11)


@pytest.fixture(scope="module")
def queries_module():
    from repro.data.synthetic import gaussian_blobs

    return gaussian_blobs(420, 32, n_blobs=8, cluster_std=0.4, seed=11)[400:]


class TestConstruction:
    def test_invalid_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            AuncelLike(dim=8, epsilon=-0.1)

    def test_invalid_probe_bounds(self):
        with pytest.raises(ValueError, match="min_probe"):
            AuncelLike(dim=8, min_probe=5, max_probe=2)

    def test_search_before_build_raises(self):
        engine = AuncelLike(dim=8)
        with pytest.raises(RuntimeError, match="build"):
            engine.search(np.ones((1, 8)))


class TestErrorBoundPlanning:
    def test_probe_counts_within_bounds(self, built, queries_module):
        probes = built.plan_probes(queries_module)
        assert np.all(probes >= built.min_probe)
        assert np.all(probes <= built.max_probe)

    def test_tighter_epsilon_fewer_probes(self, tiny_data_module, queries_module):
        tight = AuncelLike(dim=32, nlist=16, epsilon=0.1, seed=0)
        loose = AuncelLike(dim=32, nlist=16, epsilon=2.0, seed=0)
        tight.build(tiny_data_module)
        loose.build(tiny_data_module)
        assert (
            tight.plan_probes(queries_module).mean()
            <= loose.plan_probes(queries_module).mean()
        )


class TestSearch:
    def test_result_shapes(self, built, queries_module):
        result, report = built.search(queries_module, k=5)
        assert result.ids.shape == (len(queries_module), 5)
        assert report.n_queries == len(queries_module)
        assert report.simulated_seconds > 0

    def test_reasonable_recall(self, built, tiny_data_module, queries_module):
        _, true_ids = exact_knn(tiny_data_module, queries_module, k=5)
        result, _ = built.search(queries_module, k=5)
        from repro.data.ground_truth import recall_at_k

        assert recall_at_k(result.ids, true_ids) > 0.5

    def test_uses_vector_partitioning(self, built):
        _, report = built.search(np.ones((2, 32), dtype=np.float32), k=3)
        assert "vector" in report.plan_summary
