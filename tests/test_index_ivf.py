"""Unit tests for repro.index.ivf."""

import numpy as np
import pytest

from repro.data.synthetic import gaussian_blobs
from repro.index.flat import FlatIndex
from repro.index.ivf import IVFFlatIndex


@pytest.fixture(scope="module")
def data():
    return gaussian_blobs(500, 16, n_blobs=8, cluster_std=0.4, seed=0)


@pytest.fixture(scope="module")
def index(data):
    ix = IVFFlatIndex(dim=16, nlist=8, seed=0)
    ix.train(data)
    ix.add(data)
    return ix


class TestIVFConstruction:
    def test_requires_training_before_add(self):
        ix = IVFFlatIndex(dim=4, nlist=2)
        with pytest.raises(RuntimeError, match="train"):
            ix.add(np.ones((5, 4)))

    def test_centroids_untrained_raises(self):
        with pytest.raises(RuntimeError, match="not trained"):
            IVFFlatIndex(dim=4, nlist=2).centroids

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IVFFlatIndex(dim=0, nlist=4)
        with pytest.raises(ValueError):
            IVFFlatIndex(dim=4, nlist=0)

    def test_train_sets_centroids(self, index):
        assert index.is_trained
        assert index.centroids.shape == (8, 16)

    def test_lists_partition_all_vectors(self, index, data):
        all_ids = np.concatenate(
            [index.list_members(l) for l in range(index.nlist)]
        )
        assert all_ids.shape == (len(data),)
        np.testing.assert_array_equal(np.sort(all_ids), np.arange(len(data)))

    def test_list_sizes_sum_to_ntotal(self, index, data):
        assert index.list_sizes().sum() == len(data)

    def test_incremental_add_ids_continue(self, data):
        ix = IVFFlatIndex(dim=16, nlist=4, seed=0)
        ix.train(data)
        ix.add(data[:100])
        ix.add(data[100:150])
        assert ix.ntotal == 150
        members = np.concatenate([ix.list_members(l) for l in range(4)])
        np.testing.assert_array_equal(np.sort(members), np.arange(150))

    def test_dim_mismatch_raises(self, index):
        with pytest.raises(ValueError, match="expected dim"):
            index.probe(np.ones((1, 3)), nprobe=1)
        ix = IVFFlatIndex(dim=16, nlist=4, seed=0)
        with pytest.raises(ValueError, match="expected dim"):
            ix.train(np.ones((50, 8)))

    def test_build_stats_counts(self, index):
        stats = index.build_stats()
        assert stats.train_elements > 0
        assert stats.add_elements > 0


class TestIVFProbe:
    def test_probe_shape(self, index, data):
        probes = index.probe(data[:5], nprobe=3)
        assert probes.shape == (5, 3)

    def test_probe_capped_at_nlist(self, index, data):
        probes = index.probe(data[:2], nprobe=100)
        assert probes.shape == (2, 8)

    def test_probe_ordered_by_centroid_distance(self, index, data):
        from repro.distance.kernels import pairwise_squared_l2

        q = data[3:4]
        probes = index.probe(q, nprobe=8)[0]
        dists = pairwise_squared_l2(q, index.centroids)[0]
        assert np.all(np.diff(dists[probes]) >= 0)

    def test_probe_invalid_nprobe(self, index, data):
        with pytest.raises(ValueError, match="nprobe"):
            index.probe(data[:1], nprobe=0)

    def test_candidates_sorted_union(self, index):
        cand = index.candidates(np.array([0, 3]))
        assert np.all(np.diff(cand) > 0)
        expected = np.sort(
            np.concatenate([index.list_members(0), index.list_members(3)])
        )
        np.testing.assert_array_equal(cand, expected)

    def test_candidates_empty_probes(self, index):
        assert index.candidates(np.array([], dtype=np.int64)).size == 0


class TestIVFSearch:
    def test_full_probe_equals_exact(self, index, data):
        """nprobe == nlist scans everything -> identical to brute force."""
        queries = data[:20] + 0.01
        flat = FlatIndex(dim=16)
        flat.add(data)
        fd, fi = flat.search(queries, k=5)
        d, i = index.search(queries, k=5, nprobe=8)
        np.testing.assert_array_equal(i, fi)
        np.testing.assert_allclose(d, fd, rtol=1e-9)

    def test_recall_improves_with_nprobe(self, index, data):
        rng = np.random.default_rng(1)
        queries = data[rng.choice(500, 30)] + rng.standard_normal((30, 16)) * 0.3
        flat = FlatIndex(dim=16)
        flat.add(data)
        _, true_ids = flat.search(queries, k=10)

        def recall(nprobe):
            _, ids = index.search(queries, k=10, nprobe=nprobe)
            return np.mean(
                [len(set(a) & set(b)) / 10 for a, b in zip(ids, true_ids)]
            )

        r1, r4, r8 = recall(1), recall(4), recall(8)
        assert r1 <= r4 + 1e-9 <= r8 + 2e-9
        assert r8 == pytest.approx(1.0)

    def test_results_sorted(self, index, data):
        d, _ = index.search(data[:10], k=5, nprobe=4)
        assert np.all(np.diff(d, axis=1) >= 0)

    def test_padding_when_few_candidates(self, data):
        ix = IVFFlatIndex(dim=16, nlist=16, seed=0)
        ix.train(data)
        ix.add(data[:20])
        d, i = ix.search(data[:1], k=19, nprobe=1)
        assert (i[0] == -1).any() or i.shape[1] == 19
        padded = i[0] == -1
        assert np.all(np.isinf(d[0][padded]))

    def test_search_empty_raises(self, data):
        ix = IVFFlatIndex(dim=16, nlist=4, seed=0)
        ix.train(data)
        with pytest.raises(RuntimeError, match="empty"):
            ix.search(data[:1], k=1)

    def test_memory_report_components(self, index, data):
        report = index.memory_report()
        assert report["base_vectors"] == 500 * 16 * 4
        assert report["centroids"] == 8 * 16 * 4
        assert report["inverted_list_ids"] == 500 * 8
        assert report["total"] == sum(
            v for k, v in report.items() if k != "total"
        )


class TestStreamingWrites:
    """The write path must stay amortized-linear, not repack-per-add."""

    def test_add_bytes_copied_is_amortized_linear(self, data):
        ix = IVFFlatIndex(dim=16, nlist=8, seed=0)
        ix.train(data)
        batch = 5
        for start in range(0, len(data), batch):
            ix.add(data[start : start + batch])
        logical = (
            ix.memory_report()["base_vectors"]
            + ix.memory_report()["inverted_list_ids"]
            + ix.ntotal * (8 + 1)  # assignments, tombstones
        )
        # What the old np.vstack/np.concatenate-per-call path moved:
        # every batch recopied everything before it.
        n_batches = len(data) // batch
        quadratic = sum(i * batch * 16 * 4 for i in range(n_batches))
        assert quadratic > 10 * logical  # the bound is meaningful here
        # Doubling growth copies each buffer < 2x its final size
        # (plus minimum-capacity slop across the per-list buffers).
        assert ix.mutation_bytes_copied < 3 * logical

    def test_single_bulk_add_copies_nothing_extra(self, data):
        ix = IVFFlatIndex(dim=16, nlist=8, seed=0)
        ix.train(data)
        ix.add(data)
        # One bulk add lands in exactly-sized buffers: reallocation
        # traffic stays a small fraction of the adopted payload.
        assert ix.mutation_bytes_copied < data.nbytes

    def test_is_deleted_validates_range(self, index):
        with pytest.raises(IndexError, match=r"ids must be in \[0,"):
            index.is_deleted([index.ntotal])
        with pytest.raises(IndexError, match=r"ids must be in \[0,"):
            index.is_deleted([-1])

    def test_valid_ids_still_work(self, index):
        assert not index.is_deleted([0, index.ntotal - 1]).any()
        assert index.assignment_of([0]).shape == (1,)

    def test_uid_distinguishes_reloaded_index(self, data, tmp_path):
        ix = IVFFlatIndex(dim=16, nlist=8, seed=0)
        ix.train(data)
        ix.add(data)
        path = tmp_path / "ivf.npz"
        ix.save(path)
        loaded = IVFFlatIndex.load(path)
        assert loaded.uid != ix.uid
        np.testing.assert_array_equal(loaded.base, ix.base)
