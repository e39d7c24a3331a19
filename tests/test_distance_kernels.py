"""Unit tests for repro.distance.kernels."""

import numpy as np
import pytest

from repro.distance.kernels import (
    pairwise_inner_product,
    pairwise_squared_l2,
    squared_l2_from_widened,
    top_k_smallest,
    widened_rows,
)
from repro.distance.metrics import squared_l2


class TestPairwiseSquaredL2:
    def test_shape(self):
        rng = np.random.default_rng(0)
        out = pairwise_squared_l2(
            rng.standard_normal((5, 8)), rng.standard_normal((7, 8))
        )
        assert out.shape == (5, 7)

    def test_matches_rowwise_definition(self):
        rng = np.random.default_rng(1)
        queries = rng.standard_normal((4, 12))
        base = rng.standard_normal((6, 12))
        out = pairwise_squared_l2(queries, base)
        for i in range(4):
            for j in range(6):
                assert out[i, j] == pytest.approx(
                    float(squared_l2(queries[i], base[j])), rel=1e-9, abs=1e-9
                )

    def test_self_distance_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 10))
        out = pairwise_squared_l2(x, x)
        np.testing.assert_allclose(np.diag(out), 0.0, atol=1e-9)

    def test_never_negative(self):
        rng = np.random.default_rng(3)
        # Nearly identical points stress floating-point cancellation.
        base = rng.standard_normal((100, 32))
        queries = base + 1e-8
        out = pairwise_squared_l2(queries, base)
        assert np.all(out >= 0.0)

    def test_single_vector_inputs(self):
        out = pairwise_squared_l2(np.ones(4), np.zeros(4))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(4.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_of_the_norm_expansion(self, dtype):
        """Every caller (IVF, flat, HNSW, k-means) gets exactly
        ``(q_sq + b_sq) - 2 * cross``, clipped at zero, in float64."""
        rng = np.random.default_rng(5)
        queries = rng.standard_normal((40, 24)).astype(dtype)
        base = (rng.standard_normal((60, 24)) * 1e3).astype(dtype)
        q, b = queries.astype(np.float64), base.astype(np.float64)
        expected = (
            np.sum(q * q, axis=1)[:, None]
            + np.sum(b * b, axis=1)[None, :]
            - 2.0 * (q @ b.T)
        )
        np.maximum(expected, 0.0, out=expected)
        np.testing.assert_array_equal(
            pairwise_squared_l2(queries, base), expected
        )
        rows64, rows_sq = widened_rows(queries)
        np.testing.assert_array_equal(
            squared_l2_from_widened(rows64, rows_sq, base), expected
        )


class TestPairwiseInnerProduct:
    def test_matches_matmul(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((3, 9))
        b = rng.standard_normal((5, 9))
        np.testing.assert_allclose(
            pairwise_inner_product(q, b), q @ b.T, rtol=1e-12
        )

    def test_shape(self):
        out = pairwise_inner_product(np.ones((2, 4)), np.ones((3, 4)))
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out, 4.0)


class TestTopKSmallest:
    def test_basic(self):
        values = np.array([5.0, 1.0, 3.0, 2.0])
        ids, vals = top_k_smallest(values, 2)
        np.testing.assert_array_equal(ids, [1, 3])
        np.testing.assert_array_equal(vals, [1.0, 2.0])

    def test_k_equals_length(self):
        values = np.array([3.0, 1.0, 2.0])
        ids, vals = top_k_smallest(values, 3)
        np.testing.assert_array_equal(ids, [1, 2, 0])
        np.testing.assert_array_equal(vals, [1.0, 2.0, 3.0])

    def test_k_larger_than_length(self):
        ids, vals = top_k_smallest(np.array([2.0, 1.0]), 10)
        np.testing.assert_array_equal(ids, [1, 0])

    def test_ties_broken_by_index(self):
        values = np.array([1.0, 1.0, 1.0, 0.5])
        ids, _ = top_k_smallest(values, 3)
        np.testing.assert_array_equal(ids, [3, 0, 1])

    def test_values_sorted_ascending(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(200)
        _, vals = top_k_smallest(values, 50)
        assert np.all(np.diff(vals) >= 0)

    def test_matches_full_sort(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal(500)
        ids, _ = top_k_smallest(values, 20)
        expected = np.argsort(values, kind="stable")[:20]
        np.testing.assert_array_equal(ids, expected)

    def test_k_zero_raises(self):
        with pytest.raises(ValueError, match="k must be positive"):
            top_k_smallest(np.array([1.0]), 0)
