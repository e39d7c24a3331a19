"""Unit tests for repro.index.kmeans."""

import numpy as np
import pytest

from repro.data.synthetic import gaussian_blobs
from repro.index.kmeans import KMeans


class TestKMeansBasics:
    def test_fit_returns_requested_clusters(self):
        data = gaussian_blobs(200, 8, n_blobs=4, seed=0)
        result = KMeans(n_clusters=4, seed=0).fit(data)
        assert result.centroids.shape == (4, 8)
        assert result.assignments.shape == (200,)

    def test_assignments_in_range(self):
        data = gaussian_blobs(150, 6, n_blobs=3, seed=1)
        result = KMeans(n_clusters=5, seed=0).fit(data)
        assert result.assignments.min() >= 0
        assert result.assignments.max() < 5

    def test_centroids_float32(self):
        data = gaussian_blobs(100, 4, seed=2)
        result = KMeans(n_clusters=3, seed=0).fit(data)
        assert result.centroids.dtype == np.float32

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError, match="cannot fit"):
            KMeans(n_clusters=10).fit(np.ones((5, 3)))

    def test_deterministic_given_seed(self):
        data = gaussian_blobs(300, 10, n_blobs=5, seed=3)
        a = KMeans(n_clusters=5, seed=7).fit(data)
        b = KMeans(n_clusters=5, seed=7).fit(data)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_different_seeds_differ(self):
        data = gaussian_blobs(300, 10, n_blobs=5, seed=3)
        a = KMeans(n_clusters=5, seed=1).fit(data)
        b = KMeans(n_clusters=5, seed=2).fit(data)
        assert not np.array_equal(a.centroids, b.centroids)


class TestKMeansQuality:
    def test_recovers_separated_blobs(self):
        """Well-separated blobs should be recovered almost exactly."""
        rng = np.random.default_rng(4)
        centers = rng.standard_normal((4, 8)) * 20
        labels = np.repeat(np.arange(4), 50)
        data = centers[labels] + rng.standard_normal((200, 8)) * 0.1
        result = KMeans(n_clusters=4, seed=0).fit(data.astype(np.float32))
        # Every true blob maps to exactly one k-means cluster.
        mapped = {
            tuple(np.unique(result.assignments[labels == c]))
            for c in range(4)
        }
        assert all(len(m) == 1 for m in mapped)
        assert len({m[0] for m in mapped}) == 4

    def test_inertia_decreases_vs_random_centroids(self):
        data = gaussian_blobs(400, 12, n_blobs=6, seed=5)
        result = KMeans(n_clusters=6, seed=0).fit(data)
        rng = np.random.default_rng(0)
        random_centroids = data[rng.choice(400, 6, replace=False)]
        from repro.distance.kernels import pairwise_squared_l2

        random_inertia = pairwise_squared_l2(data, random_centroids).min(
            axis=1
        ).sum()
        assert result.inertia <= random_inertia

    def test_assignment_is_nearest_centroid(self):
        data = gaussian_blobs(200, 8, n_blobs=4, seed=6)
        result = KMeans(n_clusters=4, seed=0).fit(data)
        from repro.distance.kernels import pairwise_squared_l2

        distances = pairwise_squared_l2(data, result.centroids)
        np.testing.assert_array_equal(
            result.assignments, np.argmin(distances, axis=1)
        )

    def test_no_empty_clusters_after_repair(self):
        """Pathological init must still yield populated clusters."""
        # 3 tight groups but 8 clusters: repair has to reseed.
        rng = np.random.default_rng(7)
        data = np.vstack(
            [rng.standard_normal((40, 4)) * 0.01 + c for c in (0.0, 10.0, 20.0)]
        ).astype(np.float32)
        result = KMeans(n_clusters=8, seed=0, max_iterations=10).fit(data)
        counts = np.bincount(result.assignments, minlength=8)
        # At least the three groups are covered; centroids are finite.
        assert np.isfinite(result.centroids).all()
        assert (counts > 0).sum() >= 3


class TestKMeansAccounting:
    def test_elements_processed_positive(self):
        data = gaussian_blobs(100, 8, seed=8)
        result = KMeans(n_clusters=4, seed=0).fit(data)
        assert result.elements_processed > 0

    def test_elements_scale_with_dim(self):
        small = KMeans(n_clusters=4, seed=0).fit(gaussian_blobs(200, 8, seed=9))
        large = KMeans(n_clusters=4, seed=0).fit(
            gaussian_blobs(200, 64, seed=9)
        )
        assert large.elements_processed > small.elements_processed

    def test_iterations_capped(self):
        data = gaussian_blobs(300, 8, n_blobs=16, seed=10)
        result = KMeans(n_clusters=16, seed=0, max_iterations=3).fit(data)
        assert result.n_iterations <= 3

    def test_training_subsample_cap(self):
        data = gaussian_blobs(600, 8, seed=11)
        result = KMeans(
            n_clusters=4, seed=0, max_train_points=128
        ).fit(data)
        # Full-data assignment still covers everything.
        assert result.assignments.shape == (600,)


def _seeding_before_the_hoist(self, data, rng):
    """``KMeans._init_plus_plus`` as it was: one full
    ``pairwise_squared_l2`` call (cast + row norms) per centroid."""
    from repro.distance.kernels import pairwise_squared_l2

    n, dim = data.shape
    centroids = np.empty((self.n_clusters, dim), dtype=np.float64)
    centroids[0] = data[int(rng.integers(n))]
    closest = pairwise_squared_l2(data, centroids[0:1])[:, 0]
    self._elements += n * dim
    for i in range(1, self.n_clusters):
        total = float(closest.sum())
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids[i] = data[pick]
        new_dist = pairwise_squared_l2(data, centroids[i : i + 1])[:, 0]
        self._elements += n * dim
        np.minimum(closest, new_dist, out=closest)
    return centroids


class TestSeedingIsBitIdenticalToThePerCentroidForm:
    """Hoisting the cast and the row norms out of the seeding loop
    changes no bit of a fit."""

    @staticmethod
    def _assert_same_fit(data, monkeypatch, **kwargs):
        new = KMeans(**kwargs).fit(data)
        monkeypatch.setattr(
            KMeans, "_init_plus_plus", _seeding_before_the_hoist
        )
        old = KMeans(**kwargs).fit(data)
        np.testing.assert_array_equal(new.centroids, old.centroids)
        np.testing.assert_array_equal(new.assignments, old.assignments)
        assert new.inertia == old.inertia
        assert new.n_iterations == old.n_iterations
        assert new.elements_processed == old.elements_processed

    @pytest.mark.parametrize("n, dim, k", [(600, 16, 12), (3000, 128, 32)])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_l2_data(self, n, dim, k, seed, monkeypatch):
        data = gaussian_blobs(n, dim, n_blobs=9, cluster_std=0.6, seed=seed)
        self._assert_same_fit(data, monkeypatch, n_clusters=k, seed=seed)

    def test_all_duplicates_takes_the_uniform_branch(self, monkeypatch):
        data = np.full((50, 8), 1.25, dtype=np.float32)
        self._assert_same_fit(data, monkeypatch, n_clusters=4, seed=3)
