"""Batched distance kernels.

These are the numpy equivalents of the MKL routines the paper's C++
implementation uses (Section 5). They are written for correctness and
clarity; absolute speed is irrelevant because wall-clock performance in
the reproduction comes from the discrete-event simulator, which charges
time proportional to the number of processed elements.
"""

from __future__ import annotations

import numpy as np


def pairwise_squared_l2(queries: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Squared L2 distance between every query and every base vector.

    Args:
        queries: array of shape ``(nq, d)``.
        base: array of shape ``(nb, d)``.

    Returns:
        Array of shape ``(nq, nb)`` with ``out[i, j] = ||q_i - b_j||^2``.
        Tiny negative values from floating-point cancellation are clipped
        to zero so downstream monotonicity assumptions hold.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    base = np.atleast_2d(np.asarray(base, dtype=np.float64))
    q_sq = np.sum(queries * queries, axis=1)[:, None]
    b_sq = np.sum(base * base, axis=1)[None, :]
    cross = queries @ base.T
    out = q_sq + b_sq - 2.0 * cross
    np.maximum(out, 0.0, out=out)
    return out


def pairwise_inner_product(queries: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Inner product between every query and every base vector.

    Returns an array of shape ``(nq, nb)``.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    base = np.atleast_2d(np.asarray(base, dtype=np.float64))
    return queries @ base.T


def squared_l2_to_query(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared L2 distance of each row to a single query vector.

    Uses the direct difference formulation (not the norm expansion of
    :func:`pairwise_squared_l2`): rows widened to float64, the query
    subtracted, one ``einsum`` over the full width. That is *not*
    bitwise the sum the dimension pipeline accumulates from
    :func:`repro.distance.partial.partial_squared_l2` over a dimension
    cover — one ``d``-wide reduction and several slice-wide ones added
    in float64 differ in the last bits for most rows. The executor needs
    no agreement: the ids prewarm scores with this kernel are excluded
    from every shard gather (``ShardPackedBase.gather(...,
    exclude=...)``), so no id is ever scored both ways
    (``tests/test_prewarm_exclusion.py`` pins it on every backend).

    Args:
        rows: candidate matrix ``(n, d)``.
        query: query vector ``(d,)``.

    Returns:
        Non-negative array of length ``n``.
    """
    diff = np.asarray(rows, dtype=np.float64) - np.asarray(
        query, dtype=np.float64
    )
    return np.einsum("ij,ij->i", diff, diff)


def inner_product_to_query(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Inner product of each row with a single query vector.

    Returns an array of length ``n`` in float64.
    """
    return np.asarray(rows, dtype=np.float64) @ np.asarray(
        query, dtype=np.float64
    )


def scores_to_query(
    rows: np.ndarray, query: np.ndarray, metric: "object"
) -> np.ndarray:
    """Library-convention scores (smaller is better) against one query.

    Squared L2 for the L2 metric; negated dot product for the inner-
    product family (cosine inputs are assumed pre-normalized). This is
    the single scoring routine every executor backend's prewarm stage
    routes through.
    """
    from repro.distance.metrics import Metric

    if metric is Metric.L2:
        return squared_l2_to_query(rows, query)
    return -inner_product_to_query(rows, query)


def top_k_smallest(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of the ``k`` smallest entries, ascending.

    Ties are broken by index so results are deterministic. If ``k``
    exceeds the array length, all entries are returned sorted.

    Returns:
        ``(indices, values)`` pair, both of length ``min(k, len(values))``.
    """
    values = np.asarray(values)
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    n = values.shape[0]
    k = min(k, n)
    if k == n:
        order = np.lexsort((np.arange(n), values))
    else:
        partition = np.argpartition(values, k - 1)[:k]
        order = partition[np.lexsort((partition, values[partition]))]
    return order, values[order]
