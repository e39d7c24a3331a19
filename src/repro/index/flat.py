"""Exact brute-force index.

Used for ground-truth nearest neighbours (recall measurement) and as the
exhaustive-search degenerate case of the IVF index.
"""

from __future__ import annotations

import numpy as np

from repro.distance.kernels import (
    pairwise_inner_product,
    pairwise_squared_l2,
    top_k_smallest,
)
from repro.distance.metrics import Metric, normalize_rows, resolve_metric


class FlatIndex:
    """Exact k-NN over an in-memory matrix of base vectors.

    Args:
        dim: vector dimensionality.
        metric: one of ``"l2"``, ``"ip"``, ``"cosine"``.
    """

    def __init__(self, dim: int, metric: "Metric | str" = Metric.L2) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.metric = resolve_metric(metric)
        self._base = np.empty((0, dim), dtype=np.float32)

    @property
    def ntotal(self) -> int:
        """Number of indexed vectors."""
        return self._base.shape[0]

    @property
    def base(self) -> np.ndarray:
        """The stored base matrix (cosine metric stores normalized rows)."""
        return self._base

    def add(self, vectors: np.ndarray) -> None:
        """Append ``(n, dim)`` vectors to the index."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected dim {self.dim}, got vectors of dim {vectors.shape[1]}"
            )
        if self.metric is Metric.COSINE:
            vectors = normalize_rows(vectors)
        self._base = np.vstack([self._base, vectors])

    def search(
        self, queries: np.ndarray, k: int, chunk_size: int = 4096
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-``k`` search.

        Args:
            queries: ``(nq, dim)`` query matrix (or a single vector).
            k: neighbours per query.
            chunk_size: base rows scanned per block, bounding peak memory.

        Returns:
            ``(distances, ids)`` arrays of shape ``(nq, k)``. For L2 the
            distances are squared-L2 ascending; for IP/cosine they are
            *negated* similarities ascending (so smaller is always
            better), matching the convention used across the library.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if self.ntotal == 0:
            raise RuntimeError("search on empty index")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if self.metric is Metric.COSINE:
            queries = normalize_rows(queries)
        k = min(k, self.ntotal)
        nq = queries.shape[0]
        out_dist = np.empty((nq, k), dtype=np.float64)
        out_ids = np.empty((nq, k), dtype=np.int64)
        scores = np.empty((nq, self.ntotal), dtype=np.float64)
        for start in range(0, self.ntotal, chunk_size):
            stop = min(start + chunk_size, self.ntotal)
            block = self._base[start:stop]
            if self.metric is Metric.L2:
                scores[:, start:stop] = pairwise_squared_l2(queries, block)
            else:
                scores[:, start:stop] = -pairwise_inner_product(queries, block)
        for i in range(nq):
            ids, dist = top_k_smallest(scores[i], k)
            out_ids[i] = ids
            out_dist[i] = dist
        return out_dist, out_ids
