"""Unit tests for repro.distance.metrics."""

import numpy as np
import pytest

from repro.distance.metrics import (
    Metric,
    cosine_similarity,
    inner_product,
    normalize_rows,
    resolve_metric,
    squared_l2,
)


class TestMetricEnum:
    def test_values(self):
        assert Metric.L2.value == "l2"
        assert Metric.INNER_PRODUCT.value == "ip"
        assert Metric.COSINE.value == "cosine"

    def test_resolve_from_string(self):
        assert resolve_metric("l2") is Metric.L2
        assert resolve_metric("IP") is Metric.INNER_PRODUCT
        assert resolve_metric("Cosine") is Metric.COSINE

    def test_resolve_passthrough(self):
        assert resolve_metric(Metric.L2) is Metric.L2

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown metric"):
            resolve_metric("hamming")


class TestSquaredL2:
    def test_simple_vectors(self):
        assert squared_l2(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 25.0

    def test_identical_vectors_zero(self):
        v = np.array([1.5, -2.5, 3.0])
        assert squared_l2(v, v) == 0.0

    def test_batch_broadcasting(self):
        batch = np.array([[1.0, 0.0], [0.0, 2.0]])
        q = np.array([0.0, 0.0])
        np.testing.assert_allclose(squared_l2(batch, q), [1.0, 4.0])

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        p, q = rng.standard_normal(16), rng.standard_normal(16)
        assert squared_l2(p, q) == pytest.approx(squared_l2(q, p))

    def test_matches_numpy_norm(self):
        rng = np.random.default_rng(1)
        p, q = rng.standard_normal(64), rng.standard_normal(64)
        expected = float(np.linalg.norm(p - q) ** 2)
        assert squared_l2(p, q) == pytest.approx(expected)


class TestInnerProduct:
    def test_simple(self):
        assert inner_product(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_orthogonal(self):
        assert inner_product(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0

    def test_batch(self):
        batch = np.array([[1.0, 1.0], [2.0, 0.0]])
        q = np.array([1.0, 3.0])
        np.testing.assert_allclose(inner_product(batch, q), [4.0, 2.0])


class TestCosineSimilarity:
    def test_parallel_vectors(self):
        assert cosine_similarity(
            np.array([1.0, 1.0]), np.array([2.0, 2.0])
        ) == pytest.approx(1.0)

    def test_antiparallel(self):
        assert cosine_similarity(
            np.array([1.0, 0.0]), np.array([-3.0, 0.0])
        ) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert cosine_similarity(
            np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ) == pytest.approx(0.0)

    def test_zero_vector_gives_zero(self):
        assert cosine_similarity(np.zeros(4), np.ones(4)) == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(2)
        p = rng.standard_normal((50, 8))
        q = rng.standard_normal(8)
        sims = cosine_similarity(p, q)
        assert np.all(sims <= 1.0 + 1e-12)
        assert np.all(sims >= -1.0 - 1e-12)


class TestNormalizeRows:
    def test_unit_norms(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 6)).astype(np.float32) * 7
        normed = normalize_rows(x)
        np.testing.assert_allclose(
            np.linalg.norm(normed, axis=1), 1.0, rtol=1e-5
        )

    def test_zero_rows_untouched(self):
        x = np.zeros((2, 4), dtype=np.float32)
        np.testing.assert_array_equal(normalize_rows(x), x)

    def test_returns_float32(self):
        x = np.ones((3, 3), dtype=np.float64)
        assert normalize_rows(x).dtype == np.float32

    def test_does_not_mutate_input(self):
        x = np.full((2, 2), 2.0, dtype=np.float32)
        normalize_rows(x)
        np.testing.assert_array_equal(x, np.full((2, 2), 2.0))
