"""Load-imbalance measurement.

Implements the imbalance metric of paper Section 4.2.1: the standard
deviation of per-node load, where a node's load is the computation it
performs for the workload.
"""

from __future__ import annotations

import numpy as np

from repro.index.ivf import IVFFlatIndex


def cluster_histogram(
    index: IVFFlatIndex, queries: np.ndarray, nprobe: int
) -> np.ndarray:
    """Expected probe counts per inverted list for a workload.

    Entry ``h[l]`` is the number of (query, probe) pairs that touch
    list ``l``. Together with list sizes this determines the scan work
    each list generates — the cost model's load estimator.
    """
    probes = index.probe(queries, nprobe)
    return np.bincount(probes.ravel(), minlength=index.nlist).astype(np.float64)


def zipf_query_stream(
    queries: np.ndarray,
    alpha: float,
    n: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample a repeated-query stream with Zipf-distributed popularity.

    Models the skewed serving traffic of production workloads: a small
    pool of ``queries`` is replayed ``n`` times, with pool entry of
    popularity rank ``r`` drawn with probability proportional to
    ``r ** -alpha``. Ranks are assigned by a seeded permutation of the
    pool so popularity does not correlate with row order.

    Returns ``(stream, picks)`` where ``stream`` is the ``(n, dim)``
    float32 query stream and ``picks`` the pool row index behind each
    stream entry.
    """
    pool = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    if pool.shape[0] == 0:
        raise ValueError("queries must be non-empty")
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")

    rng = np.random.default_rng(seed)
    n_pool = pool.shape[0]
    # Popularity rank r (1-based) is assigned to pool rows by a seeded
    # permutation; p(r) ∝ r^-alpha.
    order = rng.permutation(n_pool)
    weights = np.arange(1, n_pool + 1, dtype=np.float64) ** -float(alpha)
    probs = np.empty(n_pool, dtype=np.float64)
    probs[order] = weights / weights.sum()
    picks = rng.choice(n_pool, size=n, p=probs)
    return pool[picks], picks


def load_imbalance(loads: np.ndarray) -> float:
    """Standard deviation of per-node loads (the paper's ``I(pi)``)."""
    loads = np.asarray(loads, dtype=np.float64)
    if loads.size == 0:
        raise ValueError("loads must be non-empty")
    return float(np.std(loads))


def normalized_imbalance(loads: np.ndarray) -> float:
    """Coefficient of variation of per-node loads.

    Scale-free version of :func:`load_imbalance` used to compare
    imbalance across datasets of different sizes; 0 means perfectly
    balanced. Returns 0 when total load is 0.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.size == 0:
        raise ValueError("loads must be non-empty")
    mean = float(np.mean(loads))
    if mean <= 0.0:
        return 0.0
    return float(np.std(loads) / mean)
