"""Unit tests for repro.workload (generators + skew measurement)."""

import numpy as np
import pytest

from repro.workload.generators import skewed_workload, uniform_workload
from repro.workload.skew import (
    cluster_histogram,
    load_imbalance,
    normalized_imbalance,
    zipf_query_stream,
)


class TestUniformWorkload:
    def test_draws_from_pool(self, tiny_queries):
        w = uniform_workload(tiny_queries, 50, seed=0)
        assert w.n_queries == 50
        assert w.skew == 0.0
        pool_rows = {tuple(row) for row in tiny_queries}
        assert all(tuple(q) in pool_rows for q in w.queries)

    def test_deterministic(self, tiny_queries):
        a = uniform_workload(tiny_queries, 30, seed=5)
        b = uniform_workload(tiny_queries, 30, seed=5)
        np.testing.assert_array_equal(a.queries, b.queries)

    def test_invalid_count(self, tiny_queries):
        with pytest.raises(ValueError):
            uniform_workload(tiny_queries, 0)


class TestSkewedWorkload:
    def test_zero_skew_like_uniform(self, tiny_queries, trained_index):
        w = skewed_workload(
            tiny_queries, trained_index, 40, skew=0.0, nprobe=4, seed=0
        )
        assert w.n_queries == 40

    def test_full_skew_concentrates_probe_mass(
        self, tiny_queries, trained_index
    ):
        hot = trained_index.list_sizes().argsort()[-2:]
        w = skewed_workload(
            tiny_queries,
            trained_index,
            60,
            skew=1.0,
            nprobe=4,
            hot_list_ids=hot,
            seed=0,
        )
        uniform = skewed_workload(
            tiny_queries,
            trained_index,
            60,
            skew=0.0,
            nprobe=4,
            hot_list_ids=hot,
            seed=0,
        )

        def hot_share(queries):
            hist = cluster_histogram(trained_index, queries, nprobe=4)
            return hist[hot].sum() / hist.sum()

        assert hot_share(w.queries) > hot_share(uniform.queries)

    def test_hot_lists_recorded(self, tiny_queries, trained_index):
        w = skewed_workload(
            tiny_queries, trained_index, 10, skew=0.5, n_hot_lists=3, seed=1
        )
        assert len(w.hot_lists) == 3

    def test_explicit_hot_lists(self, tiny_queries, trained_index):
        w = skewed_workload(
            tiny_queries,
            trained_index,
            10,
            skew=0.5,
            hot_list_ids=[0, 1],
            seed=1,
        )
        assert w.hot_lists == (0, 1)

    def test_invalid_args(self, tiny_queries, trained_index):
        with pytest.raises(ValueError, match="skew"):
            skewed_workload(tiny_queries, trained_index, 10, skew=1.5)
        with pytest.raises(ValueError, match="hot_fraction"):
            skewed_workload(
                tiny_queries, trained_index, 10, skew=0.5, hot_fraction=0.0
            )
        with pytest.raises(ValueError, match="non-empty"):
            skewed_workload(
                tiny_queries, trained_index, 10, skew=0.5, hot_list_ids=[]
            )


class TestSkewMeasurement:
    def test_cluster_histogram_totals(self, tiny_queries, trained_index):
        hist = cluster_histogram(trained_index, tiny_queries, nprobe=4)
        assert hist.sum() == len(tiny_queries) * 4
        assert hist.shape == (trained_index.nlist,)

    def test_load_imbalance_zero_for_equal(self):
        assert load_imbalance(np.array([2.0, 2.0, 2.0])) == 0.0

    def test_load_imbalance_is_std(self):
        loads = np.array([1.0, 3.0])
        assert load_imbalance(loads) == pytest.approx(1.0)

    def test_normalized_imbalance_scale_free(self):
        a = normalized_imbalance(np.array([1.0, 3.0]))
        b = normalized_imbalance(np.array([10.0, 30.0]))
        assert a == pytest.approx(b)

    def test_normalized_imbalance_zero_loads(self):
        assert normalized_imbalance(np.zeros(4)) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            load_imbalance(np.array([]))
        with pytest.raises(ValueError):
            normalized_imbalance(np.array([]))


class TestZipfQueryStream:
    def test_stream_rows_come_from_pool(self, tiny_queries):
        stream, picks = zipf_query_stream(tiny_queries, alpha=1.1, n=50,
                                          seed=0)
        assert stream.shape == (50, tiny_queries.shape[1])
        assert stream.dtype == np.float32
        assert picks.shape == (50,)
        np.testing.assert_array_equal(stream, tiny_queries[picks])

    def test_deterministic(self, tiny_queries):
        a, picks_a = zipf_query_stream(tiny_queries, alpha=1.2, n=40, seed=5)
        b, picks_b = zipf_query_stream(tiny_queries, alpha=1.2, n=40, seed=5)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(picks_a, picks_b)

    def test_alpha_concentrates_popularity(self, tiny_queries):
        _, flat = zipf_query_stream(tiny_queries, alpha=0.0, n=4000, seed=1)
        _, skewed = zipf_query_stream(tiny_queries, alpha=1.5, n=4000, seed=1)
        top_flat = np.bincount(flat).max()
        top_skewed = np.bincount(skewed).max()
        # Zipf(1.5) piles far more mass on the hottest query than
        # alpha=0 (uniform) does.
        assert top_skewed > 2 * top_flat

    def test_every_row_is_its_pool_query_verbatim(self, tiny_queries):
        stream, picks = zipf_query_stream(
            tiny_queries, alpha=1.2, n=60, seed=2
        )
        for row, pick in zip(stream, picks):
            assert row.tobytes() == tiny_queries[pick].tobytes()

    def test_validation(self, tiny_queries):
        with pytest.raises(ValueError, match="non-empty"):
            zipf_query_stream(np.empty((0, 4), dtype=np.float32), 1.0, 5)
        with pytest.raises(ValueError, match="alpha"):
            zipf_query_stream(tiny_queries, alpha=-1.0, n=5)
        with pytest.raises(ValueError, match="n must be"):
            zipf_query_stream(tiny_queries, alpha=1.0, n=0)
