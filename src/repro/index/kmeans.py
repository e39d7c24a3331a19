"""k-means clustering (k-means++ initialization, Lloyd iterations).

This is the "Train" stage of IVF index construction (paper Figure 10).
The implementation counts the floating-point elements it processes so
that build-time benchmarks can charge deterministic simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.distance.kernels import pairwise_squared_l2


@dataclass
class KMeansResult:
    """Outcome of a k-means fit.

    Attributes:
        centroids: ``(k, d)`` float32 cluster centers.
        assignments: per-point cluster id, ``(n,)`` int64.
        inertia: final sum of squared distances to assigned centroids.
        n_iterations: Lloyd iterations actually run.
        elements_processed: count of (point x centroid x dim) products
            evaluated during training; drives simulated build time.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iterations: int
    elements_processed: int


@dataclass
class KMeans:
    """Lloyd's k-means with k-means++ seeding.

    Attributes:
        n_clusters: number of centroids ``k``.
        max_iterations: Lloyd iteration cap.
        tolerance: relative inertia improvement below which we stop.
        seed: RNG seed; fits are fully deterministic for a given seed.
        max_train_points: training subsample cap, mirroring Faiss's
            default behaviour of training on a bounded sample.
    """

    n_clusters: int
    max_iterations: int = 20
    tolerance: float = 1e-4
    seed: int = 0
    max_train_points: int = 65536
    _elements: int = field(default=0, init=False, repr=False)

    def fit(self, data: np.ndarray) -> KMeansResult:
        """Cluster ``data`` and return centroids plus assignments.

        Args:
            data: ``(n, d)`` array with ``n >= n_clusters``.

        Raises:
            ValueError: when there are fewer points than clusters.
        """
        data = np.ascontiguousarray(np.asarray(data, dtype=np.float32))
        n, dim = data.shape
        if n < self.n_clusters:
            raise ValueError(
                f"cannot fit {self.n_clusters} clusters to {n} points"
            )
        rng = np.random.default_rng(self.seed)
        self._elements = 0

        train = data
        if n > self.max_train_points:
            subset = rng.choice(n, size=self.max_train_points, replace=False)
            train = data[subset]

        centroids = self._init_plus_plus(train, rng)
        inertia = np.inf
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            distances = pairwise_squared_l2(train, centroids)
            self._elements += train.shape[0] * self.n_clusters * dim
            labels = np.argmin(distances, axis=1)
            new_inertia = float(distances[np.arange(train.shape[0]), labels].sum())
            centroids = self._recompute_centroids(train, labels, centroids, rng)
            converged = np.isfinite(inertia) and (
                inertia - new_inertia <= self.tolerance * inertia
            )
            inertia = new_inertia
            if converged:
                break

        # Final assignment over the full dataset (the "Add" path reuses
        # this result when training ran on the full data).
        full_distances = pairwise_squared_l2(data, centroids)
        self._elements += n * self.n_clusters * dim
        assignments = np.argmin(full_distances, axis=1).astype(np.int64)
        inertia = float(
            full_distances[np.arange(n), assignments].sum()
        )
        return KMeansResult(
            centroids=centroids.astype(np.float32),
            assignments=assignments,
            inertia=inertia,
            n_iterations=iterations,
            elements_processed=self._elements,
        )

    def _init_plus_plus(
        self, data: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """k-means++ seeding: spread initial centroids by D^2 sampling.

        Each distance column is :func:`pairwise_squared_l2` of the data
        against one centroid, term for term, with the two things that
        do not depend on the centroid — the float64 copy of the data
        and its row norms — computed once instead of ``n_clusters``
        times.
        """
        n, dim = data.shape
        data64 = data.astype(np.float64)
        data_sq = np.sum(data64 * data64, axis=1)[:, None]

        def distance_to(centroid: np.ndarray) -> np.ndarray:
            self._elements += n * dim
            c_sq = np.sum(centroid * centroid, axis=1)[None, :]
            out = data_sq + c_sq - 2.0 * (data64 @ centroid.T)
            np.maximum(out, 0.0, out=out)
            return out[:, 0]

        centroids = np.empty((self.n_clusters, dim), dtype=np.float64)
        first = int(rng.integers(n))
        centroids[0] = data[first]
        closest = distance_to(centroids[0:1])
        for i in range(1, self.n_clusters):
            total = float(closest.sum())
            if total <= 0.0:
                # All remaining points coincide with chosen centroids;
                # fall back to uniform sampling.
                pick = int(rng.integers(n))
            else:
                pick = int(rng.choice(n, p=closest / total))
            centroids[i] = data[pick]
            np.minimum(closest, distance_to(centroids[i : i + 1]), out=closest)
        return centroids

    def _recompute_centroids(
        self,
        data: np.ndarray,
        labels: np.ndarray,
        previous: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Mean update with empty-cluster repair.

        An empty cluster is re-seeded at the point currently farthest
        from its assigned centroid, the standard Faiss-style repair.
        """
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
            worst = np.argsort(
                -residual[np.arange(data.shape[0]), labels]
            )
            for rank, cluster in enumerate(empty):
                centroids[cluster] = data[worst[rank % data.shape[0]]]
        return centroids
