"""Indexing substrate: k-means clustering and cluster-based (IVF) indexes.

HARMONY is evaluated against Faiss IVF-Flat and all of its distributed
variants share Faiss's clustering (paper Section 6.1). This package
provides that substrate from scratch:

- :class:`~repro.index.kmeans.KMeans`: k-means++ initialization + Lloyd
  iterations with empty-cluster repair,
- :class:`~repro.index.flat.FlatIndex`: exact brute-force search (used
  for ground truth and recall measurement),
- :class:`~repro.index.ivf.IVFFlatIndex`: inverted-file index over the
  k-means centroids,
- :class:`~repro.index.faiss_like.FaissLikeIVF`: the single-node
  baseline engine with operation counting for simulated timing.
"""

from repro.index.flat import FlatIndex
from repro.index.faiss_like import FaissLikeIVF, simulated_faiss_seconds
from repro.index.hnsw import HNSWIndex, SearchTrace
from repro.index.ivf import IVFFlatIndex
from repro.index.kmeans import KMeans, KMeansResult
from repro.index.quantized import SQ8IVFIndex

__all__ = [
    "FaissLikeIVF",
    "FlatIndex",
    "HNSWIndex",
    "IVFFlatIndex",
    "KMeans",
    "KMeansResult",
    "SQ8IVFIndex",
    "SearchTrace",
    "simulated_faiss_seconds",
]
