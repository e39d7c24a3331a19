"""Partial distances over dimension slices.

Dimension-based partitioning (paper Section 3.1) splits the ``d``
coordinates into ``M`` disjoint slices ``I_1 .. I_M``, one per machine.
The total squared-L2 distance is the sum of per-slice partial distances,
each non-negative, so the running sum is monotonically non-decreasing —
the property HARMONY's early-stop pruning exploits.

For inner-product (and hence cosine) search the per-slice contributions
are not sign-constrained, so monotone pruning needs an upper bound on
what the *remaining* slices can still contribute. We use the
Cauchy-Schwarz bound ``|p_rem . q_rem| <= ||p_rem|| * ||q_rem||`` with
per-slice base-vector norms precomputed at index-build time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DimensionSlices:
    """A disjoint, ordered cover of the dimension range ``[0, dim)``.

    Attributes:
        boundaries: monotonically increasing cut points including 0 and
            ``dim``; slice ``j`` covers ``[boundaries[j], boundaries[j+1])``.
    """

    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) < 2:
            raise ValueError("need at least one slice (two boundaries)")
        if self.boundaries[0] != 0:
            raise ValueError("first boundary must be 0")
        diffs = np.diff(self.boundaries)
        if np.any(diffs <= 0):
            raise ValueError(
                f"boundaries must be strictly increasing, got {self.boundaries}"
            )

    @classmethod
    def even(cls, dim: int, n_slices: int) -> "DimensionSlices":
        """Split ``dim`` coordinates into ``n_slices`` near-equal slices.

        The first ``dim % n_slices`` slices receive one extra coordinate,
        mirroring the paper's per-machine quarter splits.
        """
        if n_slices <= 0:
            raise ValueError(f"n_slices must be positive, got {n_slices}")
        if dim < n_slices:
            raise ValueError(
                f"cannot split {dim} dimensions into {n_slices} slices"
            )
        base, extra = divmod(dim, n_slices)
        sizes = [base + 1 if j < extra else base for j in range(n_slices)]
        bounds = [0]
        for size in sizes:
            bounds.append(bounds[-1] + size)
        return cls(tuple(bounds))

    @property
    def dim(self) -> int:
        return self.boundaries[-1]

    @property
    def n_slices(self) -> int:
        return len(self.boundaries) - 1

    def slice_range(self, j: int) -> tuple[int, int]:
        """Half-open coordinate range ``[start, stop)`` of slice ``j``."""
        return self.boundaries[j], self.boundaries[j + 1]

    def widths(self) -> tuple[int, ...]:
        return tuple(
            self.boundaries[j + 1] - self.boundaries[j]
            for j in range(self.n_slices)
        )

    def take(self, x: np.ndarray, j: int) -> np.ndarray:
        """View of ``x`` restricted to slice ``j`` (last axis)."""
        start, stop = self.slice_range(j)
        return x[..., start:stop]


def exact_partial(
    rows: np.ndarray,
    query: np.ndarray,
    l2: bool,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-row float64 score of one dimension slice: the one exact
    reduction every caller's bits come from.

    The rows are widened to float64; for squared L2 the query is
    subtracted from them, ``Σ (x - q)²``, and for the inner product it
    is the other operand, ``Σ x·q``. Either way one
    ``einsum("ij,ij->i")`` reduces each row over float64 operands whose
    rows are contiguous, so a row's score does not depend on which
    caller asks, on the query's shape, or on whether scratch was given
    (``tests/test_distance_partial.py::TestOneExactReduction``).

    Args:
        rows: candidate rows restricted to the slice, ``(n, w)``.
        query: the query slice ``(w,)``, or one query row per candidate
            ``(n, w)`` (row ``i`` is scored against ``query[i]``).
        l2: squared L2 if true, else the inner product.
        out: optional C-contiguous float64 scratch of ``w`` columns: its
            first ``n`` rows receive the widened rows (and the
            difference) instead of a fresh temporary, and inner-product
            query rows are widened into the next ``n``.

    Returns:
        Array of length ``n``; non-negative for squared L2.
    """
    query = np.asarray(query)
    if query.ndim == 1:
        query = np.asarray(query, dtype=np.float64)
    n = rows.shape[0]
    if out is None:
        x = np.ascontiguousarray(rows, dtype=np.float64)
    else:
        x = out[:n]
        np.copyto(x, rows)
    if l2:
        diff = np.subtract(x, query, out=None if out is None else x)
        return np.einsum("ij,ij->i", diff, diff)
    if query.ndim == 1:
        q = np.broadcast_to(query, x.shape)
    elif out is None:
        q = np.asarray(query, dtype=np.float64)
    else:
        q = out[n : 2 * n]
        np.copyto(q, query)
    return np.einsum("ij,ij->i", x, q)


def partial_squared_l2(
    base_slice: np.ndarray,
    query_slice: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-row squared-L2 contribution of one dimension slice: the scan's
    name for :func:`exact_partial` with ``l2``."""
    return exact_partial(base_slice, query_slice, True, out)


def partial_inner_product(
    base_slice: np.ndarray,
    query_slice: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-row inner-product contribution of one dimension slice: the
    scan's name for :func:`exact_partial` without ``l2``.

    An ``einsum`` reduction rather than a BLAS gemv: gemm and gemv
    accumulate in different orders, so a matrix-vector product here
    would not be bitwise reproducible across batch shapes.
    """
    return exact_partial(base_slice, query_slice, False, out)


def slice_norms(base: np.ndarray, slices: DimensionSlices) -> np.ndarray:
    """L2 norm of every base vector restricted to every slice.

    Returns an array of shape ``(n, n_slices)``; column ``j`` holds
    ``||b_i^(j)||``. Precomputed once at index build time; times the
    query's slice norms, the scans' Cauchy-Schwarz caps
    (:func:`suffix_ip_bounds`).
    """
    base = np.asarray(base, dtype=np.float64)
    out = np.empty((base.shape[0], slices.n_slices), dtype=np.float64)
    for j in range(slices.n_slices):
        out[:, j] = np.linalg.norm(slices.take(base, j), axis=1)
    return out


def query_slice_norms(
    query: np.ndarray, slices: DimensionSlices
) -> np.ndarray:
    """L2 norm of one query vector restricted to every slice.

    Computed once per query (hoisted into the executor's ``QueryState``)
    and reused by every shard scan's Cauchy-Schwarz bound.
    """
    query = np.asarray(query)
    return np.array(
        [
            float(np.linalg.norm(slices.take(query, j)))
            for j in range(slices.n_slices)
        ]
    )


#: Relative / absolute pad applied to every bound the scans prune on:
#: sqrt rounding can place a Cauchy-Schwarz cap a few ulp *below* the
#: true dot product for (anti)parallel vectors, which would make pruning
#: lossy. Named in this module only; the two functions below apply them.
BOUND_REL_EPS = 1e-7
BOUND_ABS_EPS = 1e-12


def padded_cap(raw: np.ndarray) -> np.ndarray:
    """A Cauchy-Schwarz cap on the remaining slices' dot product (a
    :func:`suffix_ip_bounds` column, or any other sum of the per-slice
    caps ``||b^(j)|| * ||q^(j)||``), inflated so float rounding can
    never place it below the true remaining dot: what a scan subtracts
    from its accumulated score."""
    return raw * (1.0 + BOUND_REL_EPS) + BOUND_ABS_EPS


def deflated_bound(bounds: np.ndarray) -> np.ndarray:
    """A lower bound on scores moved down by the same pad, relative to
    its own magnitude: what SQ8's error-padded bounds are pruned on, so
    float rounding can never flip a keep into a kill."""
    return bounds - (np.abs(bounds) * BOUND_REL_EPS + BOUND_ABS_EPS)


def suffix_ip_bounds(contrib: np.ndarray) -> np.ndarray:
    """Suffix sums of per-slice Cauchy-Schwarz contributions.

    Args:
        contrib: non-negative per-candidate per-slice caps
            ``||b^(j)|| * ||q^(j)||``, shape ``(n, n_slices)``.

    Returns:
        Array of shape ``(n, n_slices + 1)`` where column ``p`` holds
        ``sum_{j >= p} contrib[:, j]`` (column ``n_slices`` is 0). A
        scan processing slices in canonical order reads its remaining
        bound directly from column ``len(done)`` instead of rebuilding
        the remaining-column set on every ``lower_bounds()`` call.
    """
    contrib = np.asarray(contrib, dtype=np.float64)
    n, m = contrib.shape
    out = np.zeros((n, m + 1), dtype=np.float64)
    out[:, :m] = np.cumsum(contrib[:, ::-1], axis=1)[:, ::-1]
    return out
