"""Tests for reconstruction and bursty arrivals."""

import numpy as np
import pytest

from repro.workload.generators import bursty_arrivals, poisson_arrivals


class TestReconstruct:
    def test_round_trip(self, trained_index, tiny_data):
        rows = trained_index.reconstruct(np.array([3, 7, 11]))
        np.testing.assert_array_equal(rows, tiny_data[[3, 7, 11]])

    def test_out_of_range_raises(self, trained_index):
        with pytest.raises(IndexError):
            trained_index.reconstruct(np.array([10_000]))

    def test_deleted_still_reconstructs(self, tiny_data):
        from repro.index.ivf import IVFFlatIndex

        index = IVFFlatIndex(dim=32, nlist=16, seed=0)
        index.train(tiny_data)
        index.add(tiny_data)
        index.remove_ids(np.array([5]))
        np.testing.assert_array_equal(
            index.reconstruct(np.array([5]))[0], tiny_data[5]
        )

    def test_returns_copy(self, trained_index):
        rows = trained_index.reconstruct(np.array([0]))
        rows[:] = 0
        assert not np.all(trained_index.base[0] == 0)


class TestBurstyArrivals:
    def test_ascending_from_zero(self):
        arr = bursty_arrivals(200, rate_qps=1000, seed=0)
        assert arr[0] == 0.0
        assert np.all(np.diff(arr) >= 0)

    def test_mean_rate_matches_poisson(self):
        bursty = bursty_arrivals(20_000, rate_qps=1000, seed=1)
        rate = (len(bursty) - 1) / bursty[-1]
        assert 0.9 * 1000 < rate < 1.1 * 1000

    def test_burstier_than_poisson(self):
        """Gap coefficient of variation exceeds the Poisson CV of 1."""
        bursty = np.diff(bursty_arrivals(20_000, 1000, burst_factor=10,
                                         burst_fraction=0.3, seed=2))
        poisson = np.diff(poisson_arrivals(20_000, 1000, seed=2))
        cv = lambda g: g.std() / g.mean()  # noqa: E731
        assert cv(bursty) > cv(poisson) * 1.05

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bursty_arrivals(0, 100)
        with pytest.raises(ValueError):
            bursty_arrivals(10, 0)
        with pytest.raises(ValueError):
            bursty_arrivals(10, 100, burst_factor=0.5)
        with pytest.raises(ValueError):
            bursty_arrivals(10, 100, burst_fraction=1.0)

    def test_bursts_inflate_tail_latency(self, tiny_data, tiny_queries):
        """At the same average load, bursty arrivals produce a worse
        p99 than Poisson arrivals — the reason the generator exists."""
        from repro.core.config import HarmonyConfig
        from repro.core.database import HarmonyDB

        db = HarmonyDB(
            dim=32, config=HarmonyConfig(n_machines=4, nlist=16, nprobe=8)
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        _, closed = db.search(tiny_queries, k=5)
        rate = closed.qps * 0.8
        queries = np.tile(tiny_queries, (10, 1))
        smooth = poisson_arrivals(len(queries), rate, seed=3)
        rough = bursty_arrivals(
            len(queries), rate, burst_factor=20, burst_fraction=0.3, seed=3
        )
        _, a = db.search(queries, k=5, arrival_times=smooth)
        _, b = db.search(queries, k=5, arrival_times=rough)
        assert b.latency_percentile(99) > a.latency_percentile(99)
