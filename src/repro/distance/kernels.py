"""Batched distance kernels.

These are the numpy equivalents of the MKL routines the paper's C++
implementation uses (Section 5). The paper figures charge simulated time
by processed elements, so those numbers do not depend on how fast these
run; but the host backends, the index build and the perf ledger's
``setup_s`` spend real wall-clock here. Their float64 arithmetic and its
operation order are part of every result's bits, so a faster form must
keep both. The squared-L2 expansion has one implementation,
:func:`squared_l2_from_widened`; a caller that scores the same rows
against many bases (k-means) widens them once with :func:`widened_rows`.
"""

from __future__ import annotations

import numpy as np

from repro.distance.partial import exact_partial


def widened_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` in float64 and their ``(n, 1)`` squared norms: the terms
    of :func:`squared_l2_from_widened` that no base changes."""
    rows64 = np.asarray(rows, dtype=np.float64)
    return rows64, np.sum(rows64 * rows64, axis=1)[:, None]


def squared_l2_from_widened(
    rows64: np.ndarray,
    rows_sq: np.ndarray,
    base: np.ndarray,
    base_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Squared L2 distance of ``widened_rows(rows)`` to every ``base`` row.

    Computed as ``(x_sq + b_sq) - 2 * cross`` in float64, the doubling
    and the subtraction in place; tiny negative values from
    floating-point cancellation are clipped to zero so downstream
    monotonicity assumptions hold. A caller that scores many batches
    against one base (IVF's centroids) passes ``widened_rows(base)`` as
    ``base, base_sq``: its norm sum is the reduction computed here
    otherwise, so the bits are the same.
    """
    if base_sq is None:
        base, base_sq = widened_rows(base)
    b_sq = base_sq.T
    cross = rows64 @ base.T
    cross *= 2.0
    out = rows_sq + b_sq
    out -= cross
    np.maximum(out, 0.0, out=out)
    return out


def pairwise_squared_l2(queries: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Squared L2 distance between every query and every base vector.

    Args:
        queries: array of shape ``(nq, d)``.
        base: array of shape ``(nb, d)``.

    Returns:
        Array of shape ``(nq, nb)`` with ``out[i, j] = ||q_i - b_j||^2``,
        from :func:`squared_l2_from_widened`.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    return squared_l2_from_widened(*widened_rows(queries), np.atleast_2d(base))


def pairwise_inner_product(queries: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Inner product between every query and every base vector.

    Returns an array of shape ``(nq, nb)``.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    base = np.atleast_2d(np.asarray(base, dtype=np.float64))
    return queries @ base.T


def squared_l2_to_query(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared L2 distance of each row to a single query vector.

    The direct difference formulation (not the norm expansion of
    :func:`pairwise_squared_l2`), as one slice as wide as the vector:
    :func:`repro.distance.partial.exact_partial` over the full width.
    That is *not* bitwise the sum the dimension pipeline accumulates
    over a dimension cover — one ``d``-wide reduction and several
    slice-wide ones added in float64 differ in the last bits for most
    rows. The executor needs no agreement: the ids prewarm scores with
    this kernel are excluded from every shard gather
    (``ShardPackedBase.gather(..., exclude=...)``), so no id is ever
    scored both ways (``tests/test_prewarm_exclusion.py`` pins it on
    every backend).

    Args:
        rows: candidate matrix ``(n, d)``.
        query: query vector ``(d,)``.

    Returns:
        Non-negative array of length ``n``.
    """
    return exact_partial(rows, query, True)


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
