"""Unit tests for the SQ8 scalar-quantized IVF index."""

import numpy as np
import pytest

from repro.data.ground_truth import recall_at_k
from repro.data.synthetic import gaussian_blobs
from repro.index.flat import FlatIndex
from repro.index.ivf import IVFFlatIndex
from repro.index.quantized import SQ8IVFIndex


@pytest.fixture(scope="module")
def corpus():
    data = gaussian_blobs(850, 24, n_blobs=6, cluster_std=0.5, seed=31)
    return data[:800], data[800:830]


@pytest.fixture(scope="module")
def index(corpus):
    base, _ = corpus
    ix = SQ8IVFIndex(dim=24, nlist=8, seed=0)
    ix.train(base)
    ix.add(base)
    return ix


class TestConstruction:
    def test_l2_only(self):
        with pytest.raises(ValueError, match="L2"):
            SQ8IVFIndex(dim=8, nlist=4, metric="ip")

    def test_encode_before_train_raises(self):
        with pytest.raises(RuntimeError, match="train"):
            SQ8IVFIndex(dim=8, nlist=4).encode(np.ones((1, 8)))

    def test_counters(self, index):
        assert index.ntotal == 800
        assert index.is_trained
        assert index.dim == 24
        assert index.nlist == 8


class TestCodec:
    def test_codes_are_uint8(self, index, corpus):
        base, _ = corpus
        codes = index.encode(base[:10])
        assert codes.dtype == np.uint8
        assert codes.shape == (10, 24)

    def test_round_trip_error_bounded(self, index, corpus):
        """Decode error per dimension is at most half a code step."""
        base, _ = corpus
        decoded = index.decode(index.encode(base))
        err = np.abs(decoded.astype(np.float64) - base.astype(np.float64))
        step = index._scale
        assert np.all(err <= step / 2 + 1e-9)

    def test_out_of_range_values_clipped(self, index):
        extreme = np.full((1, 24), 1e6, dtype=np.float32)
        codes = index.encode(extreme)
        assert np.all(codes == 255)


class TestSearch:
    def test_recall_close_to_full_precision(self, index, corpus):
        base, queries = corpus
        flat = FlatIndex(dim=24)
        flat.add(base)
        _, truth = flat.search(queries, k=10)
        _, ids = index.search(queries, k=10, nprobe=8)
        recall = recall_at_k(ids, truth)
        assert recall > 0.7  # lossy but usable

    def test_recall_below_full_precision(self, corpus):
        """At matched parameters, SQ8 cannot beat full precision —
        the recall cost the paper's distribution approach avoids."""
        base, queries = corpus
        flat = FlatIndex(dim=24)
        flat.add(base)
        _, truth = flat.search(queries, k=10)

        full = IVFFlatIndex(dim=24, nlist=8, seed=0)
        full.train(base)
        full.add(base)
        _, full_ids = full.search(queries, k=10, nprobe=8)
        ix = SQ8IVFIndex(dim=24, nlist=8, seed=0)
        ix.train(base)
        ix.add(base)
        _, sq_ids = ix.search(queries, k=10, nprobe=8)
        assert recall_at_k(sq_ids, truth) <= recall_at_k(full_ids, truth)

    def test_param_validation(self, index, corpus):
        _, queries = corpus
        with pytest.raises(ValueError, match="k must be positive"):
            index.search(queries, k=0)
        with pytest.raises(RuntimeError, match="empty"):
            empty = SQ8IVFIndex(dim=24, nlist=8, seed=0)
            empty.train(corpus[0])
            empty.search(queries, k=1)


class TestMemory:
    def test_codes_are_quarter_of_floats(self, index, corpus):
        base, _ = corpus
        report = index.memory_report()
        assert report["codes"] == base.nbytes // 4

    def test_total_well_below_full_precision(self, index, corpus):
        base, _ = corpus
        full = IVFFlatIndex(dim=24, nlist=8, seed=0)
        full.train(base)
        full.add(base)
        assert (
            index.memory_report()["total"]
            < full.memory_report()["total"] / 2
        )


class TestScaleDegeneracy:
    """Constant dimensions (zero span) must not degrade the codec.

    Regression: the scale used to be ``span / 255`` with only the span
    clamped, which left constant columns with a ~4e-15 scale — any
    float noise around the constant then exploded through encode's
    division. The scale itself is now clamped to a positive epsilon.
    """

    def make_constant_column_corpus(self):
        rng = np.random.default_rng(9)
        base = rng.standard_normal((300, 24)).astype(np.float32)
        base[:, 3] = 7.5    # constant dimension
        base[:, 11] = 0.0   # constant-zero dimension
        queries = rng.standard_normal((10, 24)).astype(np.float32)
        queries[:, 3] = 7.5
        queries[:, 11] = 0.0
        return base, queries

    def test_scale_is_clamped_positive(self):
        base, _ = self.make_constant_column_corpus()
        ix = SQ8IVFIndex(dim=24, nlist=8, seed=0)
        ix.train(base)
        assert np.all(ix._scale >= 1e-12)
        assert np.isfinite(ix._scale).all()

    def test_constant_columns_roundtrip_exactly(self):
        base, _ = self.make_constant_column_corpus()
        ix = SQ8IVFIndex(dim=24, nlist=8, seed=0)
        ix.train(base)
        codes = ix.encode(base)
        assert np.isfinite(codes.astype(np.float64)).all()
        decoded = ix.decode(codes)
        np.testing.assert_allclose(decoded[:, 3], 7.5, rtol=0, atol=1e-6)
        np.testing.assert_allclose(decoded[:, 11], 0.0, rtol=0, atol=1e-9)
        # Non-constant dimensions keep the usual half-step error bound.
        err = np.abs(decoded.astype(np.float64) - base.astype(np.float64))
        assert np.all(err <= ix._scale / 2 + 1e-9)

    def test_search_works_on_constant_column_dataset(self):
        base, queries = self.make_constant_column_corpus()
        ix = SQ8IVFIndex(dim=24, nlist=8, seed=0)
        ix.train(base)
        ix.add(base)
        distances, ids = ix.search(queries, k=5, nprobe=8)
        assert np.isfinite(distances).all()
        assert (ids >= 0).all()
        full = IVFFlatIndex(dim=24, nlist=8, seed=0)
        full.train(base)
        full.add(base)
        _, full_ids = full.search(queries, k=5, nprobe=8)
        truth_overlap = np.mean([
            len(set(ids[i]) & set(full_ids[i])) / 5
            for i in range(len(queries))
        ])
        assert truth_overlap >= 0.8
