"""Vector similarity metrics.

HARMONY searches under squared Euclidean distance or inner product
(cosine similarity reduces to inner product on pre-normalized vectors,
see paper Section 3.1). All functions operate on ``numpy`` arrays and
accept either a single vector or a batch of row vectors.
"""

from __future__ import annotations

import enum

import numpy as np


class Metric(str, enum.Enum):
    """Supported similarity metrics.

    ``L2`` orders candidates by *ascending* squared Euclidean distance,
    ``INNER_PRODUCT`` and ``COSINE`` by *descending* similarity. The
    engine internally negates similarities so that "smaller is better"
    holds uniformly.
    """

    L2 = "l2"
    INNER_PRODUCT = "ip"
    COSINE = "cosine"


def resolve_metric(metric: "Metric | str") -> Metric:
    """Coerce a user-supplied metric name into a :class:`Metric`.

    Raises:
        ValueError: if the name does not identify a supported metric.
    """
    if isinstance(metric, Metric):
        return metric
    try:
        return Metric(str(metric).lower())
    except ValueError as exc:
        supported = ", ".join(m.value for m in Metric)
        raise ValueError(
            f"unknown metric {metric!r}; supported metrics: {supported}"
        ) from exc


def squared_l2(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between ``p`` and ``q``.

    Both arguments may be a single vector ``(d,)`` or a batch ``(n, d)``;
    standard broadcasting rules apply. Returns a scalar for two single
    vectors, otherwise an array of per-row distances.
    """
    diff = np.asarray(p, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return np.sum(diff * diff, axis=-1)


def inner_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Inner (dot) product between ``p`` and ``q`` with broadcasting."""
    p64 = np.asarray(p, dtype=np.float64)
    q64 = np.asarray(q, dtype=np.float64)
    return np.sum(p64 * q64, axis=-1)


def cosine_similarity(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Cosine similarity between ``p`` and ``q`` with broadcasting.

    Zero vectors yield similarity 0 rather than NaN.
    """
    dot = inner_product(p, q)
    norm_p = np.linalg.norm(np.asarray(p, dtype=np.float64), axis=-1)
    norm_q = np.linalg.norm(np.asarray(q, dtype=np.float64), axis=-1)
    denom = norm_p * norm_q
    return np.where(denom > 0.0, dot / np.where(denom > 0.0, denom, 1.0), 0.0)


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Return a copy of ``x`` with every row scaled to unit L2 norm.

    Rows with zero norm are left untouched. Used to reduce cosine
    similarity search to inner-product search.
    """
    x = np.asarray(x, dtype=np.float32)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return (x / safe).astype(np.float32)
