"""Unit tests for repro.index.faiss_like (single-node baseline)."""

import numpy as np
import pytest

from repro.data.synthetic import gaussian_blobs
from repro.index.faiss_like import FaissLikeIVF
from repro.index.ivf import IVFFlatIndex


@pytest.fixture(scope="module")
def data():
    return gaussian_blobs(400, 12, n_blobs=6, seed=0)


@pytest.fixture(scope="module")
def engine(data):
    eng = FaissLikeIVF(dim=12, nlist=8, seed=0)
    eng.train(data)
    eng.add(data)
    return eng


class TestFaissLikeIVF:
    def test_matches_underlying_ivf(self, engine, data):
        reference = IVFFlatIndex(dim=12, nlist=8, seed=0)
        reference.train(data)
        reference.add(data)
        d1, i1 = engine.search(data[:10], k=5, nprobe=3)
        d2, i2 = reference.search(data[:10], k=5, nprobe=3)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_allclose(d1, d2)

    def test_cost_recorded(self, engine, data):
        engine.search(data[:5], k=3, nprobe=2)
        cost = engine.last_search_cost
        assert cost.centroid_elements == 5 * 8 * 12
        assert cost.scan_elements == cost.candidates * 12

    def test_cost_grows_with_nprobe(self, engine, data):
        engine.search(data[:5], k=3, nprobe=1)
        small = engine.last_search_cost.scan_elements
        engine.search(data[:5], k=3, nprobe=8)
        large = engine.last_search_cost.scan_elements
        assert large > small

    def test_cost_before_search_raises(self, data):
        eng = FaissLikeIVF(dim=12, nlist=4, seed=0)
        eng.train(data)
        eng.add(data)
        with pytest.raises(RuntimeError, match="no search"):
            eng.last_search_cost

    def test_properties(self, engine):
        assert engine.dim == 12
        assert engine.nlist == 8
        assert engine.ntotal == 400

    def test_memory_report_passthrough(self, engine):
        report = engine.memory_report()
        assert report["total"] > 0
