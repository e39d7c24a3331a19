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


def _pairwise_squared_l2_as_it_was(queries, base):
    """``pairwise_squared_l2`` as it was, an arithmetic kept apart from
    the kernel's: a change of operation order in the shared kernel then
    fails these tests instead of moving both sides of each comparison."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    base = np.atleast_2d(np.asarray(base, dtype=np.float64))
    q_sq = np.sum(queries * queries, axis=1)[:, None]
    b_sq = np.sum(base * base, axis=1)[None, :]
    out = q_sq + b_sq - 2.0 * (queries @ base.T)
    np.maximum(out, 0.0, out=out)
    return out


def _seeding_before_the_hoist(self, widened, rng):
    """``KMeans._init_plus_plus`` as it was: one full
    ``pairwise_squared_l2`` call (cast + row norms) per centroid."""
    pairwise_squared_l2 = _pairwise_squared_l2_as_it_was
    data, _ = widened
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


def _recompute_before_the_hoist(self, data, labels, previous):
    """``KMeans._recompute_centroids`` as it was: the data widened on
    every call, summed with ``np.add.at``, repaired through
    ``pairwise_squared_l2``."""
    pairwise_squared_l2 = _pairwise_squared_l2_as_it_was
    k, dim = previous.shape
    sums = np.zeros((k, dim), dtype=np.float64)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    np.add.at(sums, labels, data.astype(np.float64))
    centroids = previous.copy()
    nonempty = counts > 0
    centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    empty = np.flatnonzero(~nonempty)
    if empty.size:
        residual = pairwise_squared_l2(data, centroids)
        self._elements += data.shape[0] * k * dim
        worst = np.argsort(-residual[np.arange(data.shape[0]), labels])
        for rank, cluster in enumerate(empty):
            centroids[cluster] = data[worst[rank % data.shape[0]]]
    return centroids


def _fit_before_the_hoist(self, data):
    """``KMeans.fit`` as it was: one full ``pairwise_squared_l2`` call
    (cast + row norms + three temporaries) per Lloyd iteration."""
    from repro.distance.kernels import widened_rows
    from repro.index.kmeans import KMeansResult

    pairwise_squared_l2 = _pairwise_squared_l2_as_it_was

    data = np.ascontiguousarray(np.asarray(data, dtype=np.float32))
    n, dim = data.shape
    rng = np.random.default_rng(self.seed)
    self._elements = 0
    train = data
    if n > self.max_train_points:
        train = data[rng.choice(n, size=self.max_train_points, replace=False)]
    centroids = self._init_plus_plus(widened_rows(train), rng)
    inertia = np.inf
    iterations = 0
    for iterations in range(1, self.max_iterations + 1):
        distances = pairwise_squared_l2(train, centroids)
        self._elements += train.shape[0] * self.n_clusters * dim
        labels = np.argmin(distances, axis=1)
        new_inertia = float(distances[np.arange(train.shape[0]), labels].sum())
        centroids = _recompute_before_the_hoist(self, train, labels, centroids)
        converged = np.isfinite(inertia) and (
            inertia - new_inertia <= self.tolerance * inertia
        )
        inertia = new_inertia
        if converged:
            break
    full_distances = pairwise_squared_l2(data, centroids)
    self._elements += n * self.n_clusters * dim
    assignments = np.argmin(full_distances, axis=1).astype(np.int64)
    return KMeansResult(
        centroids=centroids.astype(np.float32),
        assignments=assignments,
        inertia=float(full_distances[np.arange(n), assignments].sum()),
        n_iterations=iterations,
        elements_processed=self._elements,
    )


class TestLloydIsBitIdenticalToThePerIterationForm:
    """Widening the points once per fit, distances written in place and
    per-dimension ``np.bincount`` centroid sums change no bit of a fit:
    not the centroids, the assignments, the inertia, the iteration
    count, nor the element count that sets simulated Train time."""

    @staticmethod
    def _assert_same_fit(data, **kwargs):
        new = KMeans(**kwargs).fit(data)
        old = _fit_before_the_hoist(KMeans(**kwargs), data)
        np.testing.assert_array_equal(new.centroids, old.centroids)
        np.testing.assert_array_equal(new.assignments, old.assignments)
        assert new.inertia == old.inertia
        assert new.n_iterations == old.n_iterations
        assert new.elements_processed == old.elements_processed
        return new

    @pytest.mark.parametrize(
        "n, dim, k, seed", [(600, 16, 12, 0), (3000, 128, 32, 0), (3000, 128, 32, 11)]
    )
    def test_l2_data(self, n, dim, k, seed):
        data = gaussian_blobs(n, dim, n_blobs=9, cluster_std=0.6, seed=seed)
        self._assert_same_fit(data, n_clusters=k, seed=seed)

    def test_training_subsample(self):
        data = gaussian_blobs(900, 16, n_blobs=6, seed=4)
        self._assert_same_fit(
            data, n_clusters=8, seed=2, max_train_points=250
        )

    def test_empty_cluster_repair(self):
        # Five distinct points, six copies each, seven clusters: seeding
        # runs out of distinct points, so two clusters start empty.
        rng = np.random.default_rng(7)
        data = np.repeat(rng.standard_normal((5, 4)), 6, axis=0)
        result = self._assert_same_fit(data.astype(np.float32), n_clusters=7)
        # The repair pass is counted on top of the seeding, the
        # per-iteration and the final assignments.
        plain = (result.n_iterations + 2) * 30 * 7 * 4
        assert result.elements_processed > plain

    def test_all_duplicates(self):
        data = np.full((50, 8), 1.25, dtype=np.float32)
        self._assert_same_fit(data, n_clusters=4, seed=3)

    @pytest.mark.parametrize("empty", [False, True])
    def test_centroid_update(self, empty):
        """The update alone, in float64, on float32 rows whose exponents
        span 30 bits: their float64 sums round, so only an update that
        adds in ``np.add.at``'s order matches (the float32 centroids a
        fit returns can hide a last-bit difference)."""
        from repro.distance.kernels import widened_rows

        rng = np.random.default_rng(3)
        data = rng.standard_normal((3000, 128)) * 10.0 ** rng.uniform(
            -9, 0, (3000, 128)
        )
        data = data.astype(np.float32)
        labels = rng.integers(31 if empty else 32, size=3000)
        previous = rng.standard_normal((32, 128))
        new_km, old_km = KMeans(n_clusters=32), KMeans(n_clusters=32)
        new = new_km._recompute_centroids(
            widened_rows(data), np.ascontiguousarray(data.T), labels, previous
        )
        old = _recompute_before_the_hoist(old_km, data, labels, previous)
        np.testing.assert_array_equal(new, old)
        assert new_km._elements == old_km._elements

    def test_cosine_ivf_training(self, monkeypatch):
        from repro.distance.metrics import Metric
        from repro.index.ivf import IVFFlatIndex

        data = gaussian_blobs(1500, 32, n_blobs=7, seed=5)
        new = IVFFlatIndex(dim=32, nlist=16, metric=Metric.COSINE, seed=1)
        new.train(data)
        monkeypatch.setattr(KMeans, "fit", _fit_before_the_hoist)
        old = IVFFlatIndex(dim=32, nlist=16, metric=Metric.COSINE, seed=1)
        old.train(data)
        np.testing.assert_array_equal(new.centroids, old.centroids)
        assert new.build_stats() == old.build_stats()
