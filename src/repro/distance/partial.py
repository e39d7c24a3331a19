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

    def slice_width(self, j: int) -> int:
        start, stop = self.slice_range(j)
        return stop - start

    def widths(self) -> tuple[int, ...]:
        return tuple(
            self.boundaries[j + 1] - self.boundaries[j]
            for j in range(self.n_slices)
        )

    def take(self, x: np.ndarray, j: int) -> np.ndarray:
        """View of ``x`` restricted to slice ``j`` (last axis)."""
        start, stop = self.slice_range(j)
        return x[..., start:stop]


def partial_squared_l2(
    base_slice: np.ndarray,
    query_slice: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-row squared-L2 contribution of one dimension slice.

    Args:
        base_slice: candidate rows restricted to the slice, ``(n, w)``.
        query_slice: the query restricted to the slice, ``(w,)``.
        out: optional C-contiguous float64 ``(n, w)`` scratch (it may
            be ``base_slice`` itself) the rows are widened into and the
            query subtracted from in place, instead of two fresh
            temporaries. The arithmetic is the same either way — rows
            widened to float64, one float64 subtract, one einsum over
            contiguous operands — so the result does not depend on it.

    Returns:
        Non-negative array of length ``n``.
    """
    query = np.asarray(query_slice, dtype=np.float64)
    if out is None:
        diff = np.asarray(base_slice, dtype=np.float64) - query
    else:
        if out is not base_slice:
            np.copyto(out, base_slice)
        diff = np.subtract(out, query, out=out)
    return np.einsum("ij,ij->i", diff, diff)


def partial_inner_product(
    base_slice: np.ndarray,
    query_slice: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-row inner-product contribution of one dimension slice.

    Computed as a broadcast einsum rather than a BLAS gemv: gemm and
    gemv accumulate in different orders, so a matrix-vector product
    here would not be bitwise reproducible across batch shapes. The
    per-query scan scores with this einsum reduction, and the batched
    path's exact re-rank (``repro.core.pruning._exact_scores``) runs the
    same one over its survivors. ``out`` is an optional C-contiguous float64
    ``(n, w)`` scratch that receives the widened rows instead of a
    fresh temporary.
    """
    if out is None:
        base = np.asarray(base_slice, dtype=np.float64)
    else:
        np.copyto(out, base_slice)
        base = out
    query = np.asarray(query_slice, dtype=np.float64)
    return np.einsum("ij,ij->i", base, np.broadcast_to(query, base.shape))


def slice_norms(base: np.ndarray, slices: DimensionSlices) -> np.ndarray:
    """L2 norm of every base vector restricted to every slice.

    Returns an array of shape ``(n, n_slices)``; column ``j`` holds
    ``||b_i^(j)||``. Precomputed once at index build time and used by
    :func:`remaining_ip_bound`.
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


#: Relative / absolute inflation applied to Cauchy-Schwarz caps: sqrt
#: rounding can place the exact bound a few ulp *below* the true dot
#: product for (anti)parallel vectors, which would make pruning lossy.
BOUND_REL_EPS = 1e-7
BOUND_ABS_EPS = 1e-12


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


def remaining_ip_bound(
    base_norms: np.ndarray,
    query_norms: np.ndarray,
    done_slices: "list[int] | tuple[int, ...]",
    n_slices: int,
) -> np.ndarray:
    """Upper bound on the inner product still obtainable from unseen slices.

    For each candidate, sums the Cauchy-Schwarz bounds
    ``||b^(j)|| * ||q^(j)||`` over the slices *not* in ``done_slices``.
    A candidate whose (accumulated dot + bound) is below the current
    top-K threshold can be pruned losslessly.

    Args:
        base_norms: per-candidate per-slice norms, shape ``(n, n_slices)``.
        query_norms: per-slice query norms, shape ``(n_slices,)``.
        done_slices: slice indices already accumulated.
        n_slices: total number of slices.

    Returns:
        Array of length ``n`` of non-negative bounds.
    """
    done = set(done_slices)
    remaining = [j for j in range(n_slices) if j not in done]
    if not remaining:
        return np.zeros(base_norms.shape[0], dtype=np.float64)
    cols = np.asarray(remaining, dtype=np.intp)
    bound = base_norms[:, cols] @ query_norms[cols]
    return bound * (1.0 + BOUND_REL_EPS) + BOUND_ABS_EPS
