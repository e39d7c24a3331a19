"""Exact nearest-neighbour ground truth and recall@K against it."""

from __future__ import annotations

import numpy as np

from repro.distance.metrics import Metric
from repro.index.flat import FlatIndex


def exact_knn(
    base: np.ndarray,
    queries: np.ndarray,
    k: int,
    metric: "Metric | str" = Metric.L2,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` neighbours of every query by brute force.

    Args:
        base: ``(n, dim)`` base vectors.
        queries: ``(nq, dim)`` query vectors.
        k: neighbours per query.

    Returns:
        ``(distances, ids)`` of shape ``(nq, k)``; same distance
        convention as :class:`repro.index.FlatIndex`.
    """
    base = np.atleast_2d(np.asarray(base, dtype=np.float32))
    index = FlatIndex(dim=base.shape[1], metric=metric)
    index.add(base)
    return index.search(queries, k=k)


def recall_at_k(found_ids: np.ndarray, true_ids: np.ndarray) -> float:
    """Mean fraction of true top-K neighbours retrieved per query.

    Args:
        found_ids: ``(nq, k)`` ids returned by the system under test
            (``-1`` padding is ignored).
        true_ids: ``(nq, k)`` exact ground-truth ids.
    """
    found_ids = np.atleast_2d(found_ids)
    true_ids = np.atleast_2d(true_ids)
    if found_ids.shape[0] != true_ids.shape[0]:
        raise ValueError(
            f"query counts differ: {found_ids.shape[0]} vs {true_ids.shape[0]}"
        )
    k = true_ids.shape[1]
    if k == 0:
        raise ValueError("ground truth has k=0 columns")
    hits = 0
    for found, truth in zip(found_ids, true_ids):
        hits += len(set(found[found >= 0]) & set(truth))
    return hits / (found_ids.shape[0] * k)
