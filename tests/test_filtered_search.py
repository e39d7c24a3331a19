"""Tests for metadata-filtered search across the whole stack."""

import numpy as np
import pytest

from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB
from repro.core.executor.threads import ThreadBackend
from repro.data.synthetic import gaussian_blobs
from repro.index.flat import FlatIndex
from repro.index.ivf import IVFFlatIndex


@pytest.fixture(scope="module")
def labelled():
    data = gaussian_blobs(650, 24, n_blobs=6, cluster_std=0.5, seed=21)
    base, queries = data[:600], data[600:630]
    rng = np.random.default_rng(21)
    labels = rng.integers(0, 4, size=600).astype(np.int64)
    return base, queries, labels


@pytest.fixture(scope="module")
def index(labelled):
    base, _, labels = labelled
    ix = IVFFlatIndex(dim=24, nlist=8, seed=0)
    ix.train(base)
    ix.add(base, labels=labels)
    return ix


class TestIndexLabels:
    def test_labels_stored(self, index, labelled):
        _, _, labels = labelled
        np.testing.assert_array_equal(
            index.labels_of(np.arange(600)), labels
        )

    def test_default_labels_zero(self, labelled):
        base, _, _ = labelled
        ix = IVFFlatIndex(dim=24, nlist=8, seed=0)
        ix.train(base)
        ix.add(base)
        assert np.all(ix.labels_of(np.arange(600)) == 0)

    def test_label_length_mismatch_raises(self, labelled):
        base, _, _ = labelled
        ix = IVFFlatIndex(dim=24, nlist=8, seed=0)
        ix.train(base)
        with pytest.raises(ValueError, match="one label per vector"):
            ix.add(base, labels=np.zeros(3))

    def test_allowed_mask(self, index, labelled):
        _, _, labels = labelled
        mask = index.allowed_mask([1, 3])
        np.testing.assert_array_equal(mask, np.isin(labels, [1, 3]))
        assert index.allowed_mask(None) is None

    def test_empty_filter_raises(self, index):
        with pytest.raises(ValueError, match="non-empty"):
            index.allowed_mask([])

    def test_filtered_results_only_contain_filter(self, index, labelled):
        _, queries, labels = labelled
        _, ids = index.search(queries, k=5, nprobe=8, filter_labels=[2])
        found = ids[ids >= 0]
        assert np.all(labels[found] == 2)

    def test_filtered_matches_flat_reference(self, index, labelled):
        base, queries, labels = labelled
        mask = labels == 1
        subset_ids = np.flatnonzero(mask)
        flat = FlatIndex(dim=24)
        flat.add(base[mask])
        _, local = flat.search(queries, k=5)
        expected = subset_ids[local]
        # Full probe = exhaustive scan of the filtered subset.
        _, ids = index.search(queries, k=5, nprobe=8, filter_labels=[1])
        np.testing.assert_array_equal(ids, expected)

    def test_labels_survive_persistence(self, index, labelled, tmp_path):
        _, queries, _ = labelled
        path = tmp_path / "labelled.npz"
        index.save(path)
        loaded = IVFFlatIndex.load(path)
        _, a = index.search(queries, k=5, nprobe=4, filter_labels=[0, 2])
        _, b = loaded.search(queries, k=5, nprobe=4, filter_labels=[0, 2])
        np.testing.assert_array_equal(a, b)


class TestDistributedFilteredSearch:
    @pytest.fixture(scope="class")
    def db(self, labelled):
        base, queries, labels = labelled
        db = HarmonyDB(
            dim=24,
            config=HarmonyConfig(
                n_machines=4, nlist=8, nprobe=4, mode=Mode.HARMONY
            ),
        )
        db.build(base, sample_queries=queries, labels=labels)
        return db

    @pytest.mark.parametrize(
        "mode", [Mode.HARMONY, Mode.VECTOR, Mode.DIMENSION]
    )
    def test_engine_matches_reference(self, labelled, mode):
        base, queries, labels = labelled
        db = HarmonyDB(
            dim=24,
            config=HarmonyConfig(
                n_machines=4, nlist=8, nprobe=4, mode=mode
            ),
        )
        db.build(base, sample_queries=queries, labels=labels)
        result, _ = db.search(queries, k=5, filter_labels=[0, 3])
        ref_d, ref_i = db.index.search(
            queries, k=5, nprobe=4, filter_labels=[0, 3]
        )
        np.testing.assert_array_equal(result.ids, ref_i)
        np.testing.assert_allclose(result.distances, ref_d, rtol=1e-9)

    def test_filter_reduces_computation(self, db, labelled):
        _, queries, _ = labelled
        _, unfiltered = db.search(queries, k=5)
        _, filtered = db.search(queries, k=5, filter_labels=[1])
        assert (
            filtered.breakdown.computation
            < unfiltered.breakdown.computation
        )

    def test_no_filter_unchanged(self, db, labelled):
        _, queries, _ = labelled
        a, _ = db.search(queries, k=5)
        b, _ = db.search(queries, k=5, filter_labels=None)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_threaded_searcher_filtered(self, db, labelled):
        _, queries, _ = labelled
        searcher = ThreadBackend(db.index, n_threads=2)
        result = searcher.search(queries, k=5, nprobe=4, filter_labels=[2])
        _, ref_i = db.index.search(
            queries, k=5, nprobe=4, filter_labels=[2]
        )
        np.testing.assert_array_equal(result.ids, ref_i)

    def test_streaming_add_with_labels(self, labelled):
        base, queries, labels = labelled
        db = HarmonyDB(
            dim=24,
            config=HarmonyConfig(n_machines=4, nlist=8, nprobe=4),
        )
        db.build(base, sample_queries=queries, labels=labels)
        extra = gaussian_blobs(40, 24, n_blobs=6, cluster_std=0.5, seed=55)
        db.add(extra, labels=np.full(40, 9, dtype=np.int64))
        result, _ = db.search(queries, k=5, filter_labels=[9])
        found = result.ids[result.ids >= 0]
        assert np.all(found >= 600)  # only the new batch carries label 9
