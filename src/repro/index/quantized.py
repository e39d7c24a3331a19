"""Scalar-quantized (SQ8) IVF index: the lossy alternative HARMONY avoids.

Paper Section 2.1: "Since full-dimensionality is necessary to compute
vector distances accurately, reducing storage costs without resorting
to lossy compression techniques such as quantization remains a
challenge. As a result, attention is shifting towards distributed
vector ANNS schemes."

This index is that road not taken: per-dimension 8-bit scalar
quantization shrinks the stored vectors 4x — the same per-node saving a
4-way HARMONY deployment gets — but pays for it with approximate
distances and hence recall loss. `benchmarks/bench_quantization_
motivation.py` puts the two options side by side.
"""

from __future__ import annotations

import numpy as np

from repro.distance.kernels import squared_l2_to_query, top_k_smallest
from repro.distance.metrics import Metric, resolve_metric
from repro.index.ivf import IVFFlatIndex

#: Smallest admissible per-dimension quantization step. Constant
#: columns have zero span; without the clamp encode would divide by a
#: zero (or denormal) scale. Any positive step is exact for them:
#: every code lands on 0 and decodes back to ``lo``.
SQ8_SCALE_EPS = 1e-12


def sq8_train_params(base: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Per-dimension ``(lo, scale)`` for uint8 scalar quantization."""
    if base.shape[0] == 0:
        dim = base.shape[1]
        return np.zeros(dim, dtype=np.float64), np.ones(dim, dtype=np.float64)
    lo = base.min(axis=0).astype(np.float64)
    hi = base.max(axis=0).astype(np.float64)
    scale = np.maximum((hi - lo) / 255.0, SQ8_SCALE_EPS)
    return lo, scale


def sq8_encode(
    rows: np.ndarray, lo: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Quantize float rows to uint8 codes (clipped to the trained range)."""
    codes = np.rint((rows.astype(np.float64) - lo) / scale)
    return np.clip(codes, 0, 255).astype(np.uint8)


def sq8_decode(
    codes: np.ndarray, lo: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Float64 reconstruction ``codes * scale + lo``. The packed
    layout's error table is measured against this exact arithmetic."""
    return codes.astype(np.float64) * scale + lo


class SQ8IVFIndex:
    """IVF with 8-bit scalar-quantized storage.

    Training learns both the k-means clustering (reusing
    :class:`IVFFlatIndex`) and per-dimension (min, max) ranges; stored
    vectors are uint8 codes ``round(255 * (x - min) / (max - min))``.
    Search scans probed lists over *decoded* vectors, so distances are
    approximate within quantization error.

    Args:
        dim / nlist / seed: as for :class:`IVFFlatIndex`.
        metric: only L2 is supported (quantization ranges are learned
            per dimension in the original space).
    """

    def __init__(
        self,
        dim: int,
        nlist: int,
        metric: "Metric | str" = Metric.L2,
        seed: int = 0,
    ) -> None:
        metric = resolve_metric(metric)
        if metric is not Metric.L2:
            raise ValueError("SQ8IVFIndex supports the L2 metric only")
        self._ivf = IVFFlatIndex(dim=dim, nlist=nlist, metric=metric, seed=seed)
        self._codes = np.empty((0, dim), dtype=np.uint8)
        self._lo: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._ivf.dim

    @property
    def nlist(self) -> int:
        return self._ivf.nlist

    @property
    def ntotal(self) -> int:
        return self._codes.shape[0]

    @property
    def is_trained(self) -> bool:
        return self._ivf.is_trained and self._lo is not None

    def train(self, data: np.ndarray) -> None:
        """Learn the clustering and the per-dimension code ranges."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float32))
        self._ivf.train(data)
        self._lo, self._scale = sq8_train_params(data)

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Quantize float vectors to uint8 codes (clipped to range)."""
        if self._lo is None or self._scale is None:
            raise RuntimeError("train() must be called before encoding")
        return sq8_encode(np.atleast_2d(vectors), self._lo, self._scale)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate float vectors from codes."""
        if self._lo is None or self._scale is None:
            raise RuntimeError("train() must be called before decoding")
        return sq8_decode(
            np.atleast_2d(codes), self._lo, self._scale
        ).astype(np.float32)

    def add(self, vectors: np.ndarray) -> None:
        """Quantize and index a batch of vectors."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        # The IVF keeps list membership (and the paper-faithful probe
        # behaviour); we replace its storage role with uint8 codes.
        self._ivf.add(vectors)
        self._codes = np.vstack([self._codes, self.encode(vectors)])

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(
        self, queries: np.ndarray, k: int, nprobe: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate IVF search over decoded (lossy) vectors."""
        if self.ntotal == 0:
            raise RuntimeError("search on empty index")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        probes = self._ivf.probe(queries, nprobe)
        nq = queries.shape[0]
        out_dist = np.full((nq, k), np.inf, dtype=np.float64)
        out_ids = np.full((nq, k), -1, dtype=np.int64)
        for i in range(nq):
            cand = self._ivf.candidates(probes[i])
            if cand.size == 0:
                continue
            scores = squared_l2_to_query(
                self.decode(self._codes[cand]), queries[i]
            )
            take = min(k, cand.size)
            order, _ = top_k_smallest(scores, take)
            out_ids[i, :take] = cand[order]
            out_dist[i, :take] = scores[order]
        return out_dist, out_ids

    def memory_report(self) -> dict[str, int]:
        """Bytes held: uint8 codes + centroids + list ids + ranges.

        The full-precision base kept inside the inner IVF exists only
        as training scaffolding here and is excluded — a production
        SQ8 index stores codes only.
        """
        inner = self._ivf.memory_report()
        range_bytes = 0
        if self._lo is not None:
            range_bytes = int(self._lo.nbytes + self._scale.nbytes)
        return {
            "codes": int(self._codes.nbytes),
            "centroids": inner["centroids"],
            "inverted_list_ids": inner["inverted_list_ids"],
            "quantization_ranges": range_bytes,
            "total": int(self._codes.nbytes)
            + inner["centroids"]
            + inner["inverted_list_ids"]
            + range_bytes,
        }
