"""Unit tests for repro.index.flat."""

import numpy as np
import pytest

from repro.distance.metrics import Metric
from repro.index.flat import FlatIndex


class TestFlatIndexConstruction:
    def test_empty_index(self):
        index = FlatIndex(dim=8)
        assert index.ntotal == 0

    def test_add_accumulates(self):
        index = FlatIndex(dim=4)
        index.add(np.ones((3, 4)))
        index.add(np.zeros((2, 4)))
        assert index.ntotal == 5

    def test_dim_mismatch_raises(self):
        index = FlatIndex(dim=4)
        with pytest.raises(ValueError, match="expected dim 4"):
            index.add(np.ones((2, 6)))

    def test_invalid_dim_raises(self):
        with pytest.raises(ValueError, match="dim must be positive"):
            FlatIndex(dim=0)

    def test_search_empty_raises(self):
        with pytest.raises(RuntimeError, match="empty index"):
            FlatIndex(dim=4).search(np.ones(4), k=1)

    def test_invalid_k_raises(self):
        index = FlatIndex(dim=4)
        index.add(np.ones((2, 4)))
        with pytest.raises(ValueError, match="k must be positive"):
            index.search(np.ones(4), k=0)


class TestFlatIndexSearchL2:
    def test_finds_exact_match(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((50, 8)).astype(np.float32)
        index = FlatIndex(dim=8)
        index.add(base)
        dist, ids = index.search(base[17], k=1)
        assert ids[0, 0] == 17
        assert dist[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_distances_ascending(self):
        rng = np.random.default_rng(1)
        index = FlatIndex(dim=16)
        index.add(rng.standard_normal((100, 16)))
        dist, _ = index.search(rng.standard_normal((5, 16)), k=10)
        assert np.all(np.diff(dist, axis=1) >= 0)

    def test_k_capped_at_ntotal(self):
        index = FlatIndex(dim=4)
        index.add(np.eye(4, 4))
        dist, ids = index.search(np.zeros(4), k=100)
        assert ids.shape == (1, 4)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((200, 12))
        queries = rng.standard_normal((10, 12))
        index = FlatIndex(dim=12)
        index.add(base)
        _, ids = index.search(queries, k=5)
        diffs = queries[:, None, :] - base[None, :, :]
        full = np.einsum("qnd,qnd->qn", diffs, diffs)
        for i in range(10):
            expected = np.argsort(full[i], kind="stable")[:5]
            np.testing.assert_array_equal(ids[i], expected)

    def test_chunked_search_matches_unchunked(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((300, 8))
        q = rng.standard_normal((4, 8))
        index = FlatIndex(dim=8)
        index.add(base)
        d1, i1 = index.search(q, k=7, chunk_size=37)
        d2, i2 = index.search(q, k=7, chunk_size=10_000)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_allclose(d1, d2)


class TestFlatIndexOtherMetrics:
    def test_inner_product_ordering(self):
        base = np.array([[1.0, 0.0], [10.0, 0.0], [5.0, 0.0]])
        index = FlatIndex(dim=2, metric=Metric.INNER_PRODUCT)
        index.add(base)
        dist, ids = index.search(np.array([1.0, 0.0]), k=3)
        np.testing.assert_array_equal(ids[0], [1, 2, 0])
        # Negated similarities ascending.
        np.testing.assert_allclose(dist[0], [-10.0, -5.0, -1.0])

    def test_cosine_ignores_magnitude(self):
        base = np.array([[1.0, 0.0], [0.0, 100.0]])
        index = FlatIndex(dim=2, metric="cosine")
        index.add(base)
        _, ids = index.search(np.array([0.0, 0.001]), k=1)
        assert ids[0, 0] == 1
