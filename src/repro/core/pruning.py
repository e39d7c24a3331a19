"""Dimension-level early-stop pruning (paper Sections 3.1 and 4.3).

:class:`ShardScan` tracks one (query, shard) candidate batch through
the dimension pipeline: it accumulates exact per-slice partial scores,
compacts its bookkeeping to the alive candidates after every prune, and
exposes the lossless lower bound compared against the top-K threshold.
:class:`ShardGroupScan` is its multi-query sibling used by the batched
executor path: dense bookkeeping over every group member's candidates,
advanced through each (shard, slice) stage one member block at a time.
:class:`PruningStats` aggregates the per-slice pruning ratios reported
in the paper's Figure 2(a) and Table 3.

No scan holds candidate rows. Each keeps the *alive index array* of its
candidates — shard-local row indices into a
:class:`~repro.core.layout.ShardSlabs` handle — and every stage takes
just that slice's columns of just those rows out of the slab, into
stage buffers the scan object owns (never shared: concurrent callers
of one kernel each open their own scans). Pruning therefore moves index
arrays only. The one stage that takes nothing is a group opened
*list-major*: its first slice reads each probed list's slab range in
place and scores it against every member probing it with one GEMM
(:func:`_list_scores`), and only the survivors become alive indices.

Score convention: smaller is better. For L2 the accumulated partial sum
itself lower-bounds the final score; for inner product the bound
subtracts the Cauchy-Schwarz cap on the remaining slices' contribution,
read from a suffix-sum table precomputed at scan construction.

Phase one bounds, phase two answers. The two-phase scans prune on
float32 BLAS scores padded down by a proved rounding term — scores of
the float32 rows (:class:`ShardGroupScan`) or of the uint8 codes
(:class:`SQ8ShardScan` / :class:`SQ8ShardGroupScan`) — and re-score only
the survivors with the exact float64 kernel, so ids and distances are
bitwise those of :class:`ShardScan`. That class alone stays exact all
the way: it is the per-query reference the fused path is checked
against and the simulator's stepping unit, so the fused path is checked
against a genuinely different computation and simulated figures cannot
move. The pad is derived once (:func:`_phase_one_pad`), each
precision's scorer is one helper (:func:`_f32_padded_scores`,
:func:`_sq8_padded_scores`; the list-major first slice's
:func:`_list_scores` is the fp32 one's arithmetic over a GEMM) and the
re-rank is one helper all two-phase scans share (:func:`_exact_scores`).
"""

from __future__ import annotations

import numpy as np

from repro.core.layout import CandidatePart, ShardSlabs
from repro.distance.metrics import Metric
from repro.distance.partial import (
    BOUND_ABS_EPS,
    BOUND_REL_EPS,
    DimensionSlices,
    partial_inner_product,
    partial_squared_l2,
    query_slice_norms,
    suffix_ip_bounds,
)


class PruningStats:
    """Cumulative pruning ratios per pipeline position.

    ``ratio(p)`` is the fraction of candidates already pruned when the
    pipeline reaches slice position ``p`` (position 0 is always 0.0,
    matching the "First Slice" column of Table 3).
    """

    def __init__(self, n_slices: int) -> None:
        if n_slices <= 0:
            raise ValueError(f"n_slices must be positive, got {n_slices}")
        self.n_slices = n_slices
        self.pruned_before = np.zeros(n_slices, dtype=np.float64)
        self.totals = np.zeros(n_slices, dtype=np.float64)

    def record(self, position: int, n_pruned: int, n_total: int) -> None:
        """Record that ``n_pruned`` of ``n_total`` candidates were already
        pruned when slice position ``position`` started."""
        if not 0 <= position < self.n_slices:
            raise IndexError(
                f"position {position} out of range [0, {self.n_slices})"
            )
        if n_total < 0 or n_pruned < 0 or n_pruned > n_total:
            raise ValueError(
                f"invalid counts: pruned={n_pruned}, total={n_total}"
            )
        self.pruned_before[position] += n_pruned
        self.totals[position] += n_total

    def merge(self, other: "PruningStats") -> None:
        """Accumulate another stats object (same slice count) in place."""
        if other.n_slices != self.n_slices:
            raise ValueError("cannot merge stats with different slice counts")
        self.pruned_before += other.pruned_before
        self.totals += other.totals

    def ratios(self) -> np.ndarray:
        """Per-position pruning fractions in ``[0, 1]``."""
        out = np.zeros(self.n_slices, dtype=np.float64)
        mask = self.totals > 0
        out[mask] = self.pruned_before[mask] / self.totals[mask]
        return out

    def average_ratio(self) -> float:
        """Mean of the per-position ratios (Table 3's last column)."""
        return float(np.mean(self.ratios()))


class _StageBuffers:
    """The two buffers one scan object reuses for every stage.

    ``stage`` takes a slice's alive rows out of the slab into the first
    (viewed as the slab's own dtype) and hands back, beside them, a
    float64 scratch of the same shape for the scorer to widen or cast
    into. Both are flat and viewed as C-contiguous ``(n, width)`` from
    offset 0, so any stage no larger than the first reuses the same
    memory with the operand layout the einsum reduction's bits depend
    on. The first has room for float32 rows whatever the slab's dtype:
    the re-rank (:func:`_exact_scores`) stages float32 rows and query
    slices there even when the scan streams uint8 codes. Owned by one
    scan, never module-global: several caller threads may search one
    kernel at once.
    """

    __slots__ = ("rows", "_taken", "_f64")

    def __init__(self, n_rows: int, slabs: ShardSlabs) -> None:
        # Two rows at least: the inner-product re-rank splits the
        # float64 scratch between a block's rows and their queries.
        self.rows = max(n_rows, 2)
        size = self.rows * slabs.max_width
        itemsize = max(slabs.base[0].itemsize, 4)
        self._taken = np.empty(size * itemsize, dtype=np.uint8)
        self._f64 = np.empty(size, dtype=np.float64)

    def taken(self, n: int, width: int, dtype) -> np.ndarray:
        return self._taken.view(dtype)[: n * width].reshape(n, width)

    def f64(self, n: int, width: int, offset: int = 0) -> np.ndarray:
        return self._f64[offset : offset + n * width].reshape(n, width)

    def f32(self, n: int, width: int) -> np.ndarray:
        """A float32 ``(n, width)`` view of the float64 scratch."""
        return self._f64.view(np.float32)[: n * width].reshape(n, width)

    def stage(self, slabs: ShardSlabs, block: int, local: np.ndarray):
        slab = slabs.base[block]
        n, width = local.size, slab.shape[1]
        taken = self.taken(n, width, slab.dtype)
        return slabs.take(block, local, out=taken), self.f64(n, width)


def _slice_scores(
    rows: np.ndarray, q_slice: np.ndarray, metric: Metric, f64: np.ndarray
) -> np.ndarray:
    """One slice's per-row score contribution (``L2`` or ``-IP``),
    widened into the scan's ``f64`` scratch."""
    if metric is Metric.L2:
        return partial_squared_l2(rows, q_slice, f64)
    return -partial_inner_product(rows, q_slice, f64)


#: float32's unit roundoff, float64's, and the two float32 range limits
#: the phase-one pad is written against (:func:`_phase_one_pad`):
#: ``_F32_TINY`` is one dimension's absolute error budget, ``_F32_SAFE``
#: the largest sum of a stage's term magnitudes for which every float32
#: partial sum, in any order, is still finite.
_F32_U = 2.0**-24
_F64_U = 2.0**-53
_F32_TINY = 2.0**-108
_F32_SAFE = 1e37


def _phase_one_pad(widths) -> tuple[np.ndarray, np.ndarray]:
    """``(γ, absolute term)`` per slice: phase one's rounding pad.

    Written once for both precisions. **Lemma.** A float32 dot product
    of ``w`` terms — products of float32 values, or of a float32 value
    and a weight rounded to float32 — is within ``γ·Σ|terms|`` of the
    real one, ``γ = (w+2)·u / (1 - (w+2)·u)``, ``u = 2⁻²⁴``, whatever
    order the library adds them in (Higham, *Accuracy and Stability*,
    §3.1), on two conditions:

    * No product falls under float32's normal range (2⁻¹²⁶), where it is
      rounded with an absolute, not a relative, error — or dropped whole
      by a flush-to-zero build. ``w·_F32_TINY`` (2⁻¹⁰⁸ a dimension)
      pays for that: an SQ8 weight under 2⁻¹²⁶ is then multiplied by a
      code (< 2⁸) or its square (< 2¹⁶); an fp32 dimension has two
      products.
    * No partial sum overflows. That one is checked, not padded. IEEE
      overflow is sticky — a partial sum that reached ±∞ ends ±∞ or
      NaN, never finite — so a stage that could overflow (SQ8, decided
      per (member, slice) against ``_F32_SAFE`` before computing) or did
      (fp32, read off its non-finite result) returns the bound that is
      true of anything: 0 for L2, ``-inf`` for the inner-product family.
      Never NaN, which compares False against every threshold — a
      pruned true neighbour.

    **Both scorers' shapes.** L2 is ``A - 2X + C``: ``A`` the squared
    block summed against non-negative weights, ``X`` the block against
    weights with ``Σ|terms of X| ≤ √(A·C)`` (Cauchy-Schwarz), ``C`` a
    float64 constant. Then ``|Â - A| ≤ γ·A`` and ``|2X̂ - 2X| ≤ 2γ·√(AC)
    ≤ γ·(A + C)``, hence ``A - 2X + C ≥ (Â - 2X̂ + C) - ε·(Â + C)`` for
    ``ε = 3γ ≥ 2γ/(1-γ)``. The inner-product family is one dot product
    ``Y`` with ``Σ|terms| ≤ G``, so ``-Y ≥ -Ŷ - 2γ·G``. The slack left
    in ``3γ`` and ``2γ`` (at least ``γ/2``, against float64 errors
    ``2²⁹`` times smaller) covers the float64 roundings of the weights,
    constants, norms and final sums, and of the exact float64 score the
    bound is held against. What ``A``, ``X``, ``C`` and ``G`` are is each
    scorer's: :func:`_f32_padded_scores`, :func:`_sq8_padded_scores`.
    """
    widths = np.asarray(widths, dtype=np.float64)
    gamma = (widths + 2) * _F32_U / (1.0 - (widths + 2) * _F32_U)
    return gamma, widths * _F32_TINY


def _f32_padded_scores(scan, block: slice, slice_id: int) -> np.ndarray:
    """Float32 scores of the dense rows ``block`` — several members'
    rows, each against its own query — padded down to bound the exact
    ones: :class:`ShardGroupScan`'s phase one.

    One take of the block's rows into the scan's taken buffer, then
    BLAS: per member, one ``sgemv`` of its rows against the weights
    :func:`_attach_f32` hoisted for it, and the rest over the whole
    block. For L2, ``‖x - q‖² = A - 2X + C`` with ``A = ‖x‖²`` (the block
    squared into a float32 view of the float64 scratch, one ``sgemv``
    against ones), ``-2X`` the member's ``sgemv`` against ``-2q`` (exact
    in float32) and ``C = ‖q_s‖²`` a float64 (slice, member) constant
    with the whole pad already taken off: ``Σ|x∘q| ≤ √(A·C)``, so
    :func:`_phase_one_pad`'s lemma subtracts ``3γ·(Â + C)`` and its
    absolute term. For the inner-product family the score is ``-x·q``,
    the member's ``sgemv`` against ``q``, and ``Σ|x∘q| ≤ ‖x_s‖·‖q_s‖`` on
    the per-row slice norms the scan carries, so each row's
    ``2γ·‖x_s‖·‖q_s‖`` plus the absolute term comes off. A non-finite
    result (float32 squares overflow near 1.8e19, where float32 data
    does not) becomes the trivial bound.
    """
    local, owner = scan._local[block], scan.query_of[block]
    start, stop = scan.slices.slice_range(slice_id)
    n, width = local.size, stop - start
    rows = scan._slabs.take(
        slice_id, local, out=scan._buffers.taken(n, width, np.float32)
    )
    # ``owner`` ascends: each member's rows are one segment of the block.
    first = int(owner[0])
    cuts = np.searchsorted(owner, np.arange(first, owner[-1] + 2)).tolist()
    weights = scan._f32_weights[:, start:stop]
    linear = np.empty(n, dtype=np.float32)
    for q, (lo, hi) in enumerate(zip(cuts, cuts[1:]), start=first):
        if lo < hi:
            np.dot(rows[lo:hi], weights[q], out=linear[lo:hi])
    if scan._f32_cap is not None:
        approx = np.negative(linear, dtype=np.float64)
        approx -= scan._f32_cap[block, slice_id]
        trivial = -np.inf
    else:
        squares = np.square(rows, out=scan._buffers.f32(n, width))
        approx = np.multiply(
            np.dot(squares, scan._f32_ones[:width]),
            scan._f32_keep[slice_id],
            dtype=np.float64,
        )
        approx += linear
        approx += scan._f32_const[slice_id].take(owner)
        trivial = 0.0
    if not np.isfinite(approx.sum()):
        approx[~np.isfinite(approx)] = trivial
    return approx


def _sq8_padded_scores(
    scan, codes, f64, q: int, slice_id: int, cols: slice, err
) -> np.ndarray:
    """One slice's SQ8 scores, padded down to bound the exact ones.

    Nothing is decoded. The codes (integers up to 255, exact in
    float32) are cast once into a float32 view of the scan's ``f64``
    scratch and scored against the weights :func:`_attach_sq8` hoisted
    for member ``q``, with BLAS. Writing ``c`` for a row's codes,
    ``s`` / ``lo`` for the slice's scale / offset and ``u = q - lo``:

    * L2: ``||decode(c) - q||² = A - 2X + C`` with ``A = Σ s²c²``,
      ``X = Σ (s∘u)·c``, ``C = Σ u²`` — ``sgemv`` of the squared block
      against ``s²``, of the block against ``-2 s∘u``, and a per
      (member, slice) constant; ``Σ|s∘u|·c ≤ √(A·C)``;
    * IP family: ``-decode(c)·q = Y - lo·q`` with ``Y = -Σ (s∘q)·c`` —
      one ``sgemv`` and a constant; ``G = 255·Σ|s∘q|`` (``c ≤ 255``).

    :func:`_phase_one_pad`'s lemma takes ``3γ·(Â + C)`` (L2) or
    ``2γ·G`` off, and its absolute term. One float64 term is SQ8's own:
    the error table bounds the row's distance to ``decode(c)`` *as
    float64 computes it*, which lies up to ``2⁻⁵²·(|s·c| + |lo|)`` per
    dimension from the real-number decode expanded above — ``2⁻⁵⁰·Σ
    lo²`` for L2, and for the IP family ``2(w+4)·2⁻⁵³·Σ|lo∘q|``, which
    also spans the ``w`` roundings of ``lo·q`` here and in the exact
    score the bound is held against (an offset far larger than the span
    leaves those to cancellation). Where the stage's term magnitudes
    could exceed ``_F32_SAFE``, :func:`_attach_sq8` has marked the
    (member, slice) with a ``-inf`` constant: nothing is computed and the
    stage returns the trivial bound. Elsewhere every intermediate is
    finite by construction.

    All of it is subtracted first; the stage then pads by the packed
    error norm exactly as the decode form did: for L2 ``max(0,
    sqrt(approx) - err)**2`` (reverse triangle inequality), for the
    inner-product family ``approx - ||q_s|| * err`` (Cauchy-Schwarz).
    ``err`` was rounded *up* at pack time.
    """
    n, width = codes.shape
    l2 = scan.metric is Metric.L2
    const = scan._sq8_const[q, slice_id]
    if const == -np.inf:
        return np.full(n, 0.0 if l2 else -np.inf)
    block = f64.reshape(-1).view(np.float32)[: n * width].reshape(n, width)
    np.copyto(block, codes)
    linear = np.dot(block, scan._sq8_linear[q, cols])
    if not l2:
        approx = np.add(linear, const, dtype=np.float64)
        approx -= np.multiply(
            err, scan._qnorms64[q, slice_id], dtype=np.float64
        )
        return approx
    np.square(block, out=block)
    approx = np.multiply(
        np.dot(block, scan._sq8_square[cols]),
        scan._sq8_keep[slice_id],
        dtype=np.float64,
    )
    approx += linear
    approx += const
    np.sqrt(np.maximum(approx, 0.0, out=approx), out=approx)
    approx -= err
    return np.square(np.maximum(approx, 0.0, out=approx), out=approx)


def _query_slabs(queries: np.ndarray, slices: DimensionSlices) -> list:
    """The queries' slice columns, one contiguous ``(n_queries, width)``
    float32 block per slice — what the per-row query takes read."""
    return [
        np.ascontiguousarray(slices.take(queries, j), dtype=np.float32)
        for j in range(slices.n_slices)
    ]


def _exact_scores(
    slabs: ShardSlabs,
    local: np.ndarray,
    owner: np.ndarray,
    query_slabs: list,
    metric: Metric,
    buffers: _StageBuffers,
) -> np.ndarray:
    """Exact scores of float32 rows ``local``, row ``i`` against its
    owner's query ``owner[i]`` (``query_slabs`` from
    :func:`_query_slabs`): phase two, shared by every two-phase scan.

    The rows go through in blocks the scan's own ``buffers`` hold — at
    most ``buffers.rows`` a block, half that for the inner-product
    family, whose widened query rows take the float64 scratch's second
    half. Per block and slice, in canonical slice order: one take of the
    rows into the taken buffer, widened into the float64 scratch; one
    take of each row's owner query slice into the taken buffer, now
    free; then :class:`ShardScan`'s reduction — subtract in place and
    ``einsum`` (L2), or ``einsum`` against the widened query rows (IP
    family). A materialized query row holds exactly the values the
    broadcast one does, over operands of the same contiguity, so every
    score carries the bits the exact scan accumulates.
    """
    l2 = metric is Metric.L2
    step = buffers.rows if l2 else buffers.rows // 2
    total = np.zeros(local.size, dtype=np.float64)
    for start in range(0, local.size, step):
        block = slice(start, start + step)
        rows, owners, acc = local[block], owner[block], total[block]
        n = rows.size
        for slice_id, queries in enumerate(query_slabs):
            width = queries.shape[1]
            x = buffers.f64(n, width)
            taken = buffers.taken(n, width, slabs.base[slice_id].dtype)
            np.copyto(x, slabs.take(slice_id, rows, out=taken))
            q = np.take(
                queries, owners, axis=0,
                out=buffers.taken(n, width, np.float32), mode="clip",
            )
            if l2:
                np.subtract(x, q, out=x)
                acc += np.einsum("ij,ij->i", x, x)
            else:
                q64 = buffers.f64(n, width, offset=n * width)
                np.copyto(q64, q)
                acc -= np.einsum("ij,ij->i", x, q64)
    return total


def _deflated(bounds: np.ndarray) -> np.ndarray:
    """Error-padded bounds, deflated once more for float safety."""
    return bounds - (np.abs(bounds) * BOUND_REL_EPS + BOUND_ABS_EPS)


def _kept_rows(table: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``table``'s rows at the ascending indices ``keep``: a take, an
    order of magnitude cheaper than a boolean-mask row copy."""
    return table.take(keep, axis=0)


def _attach_f32(scan, norms) -> None:
    """:class:`ShardGroupScan`'s phase-one side state — the fp32
    counterpart of :func:`_attach_sq8`, hoisted once per scan in
    float64.

    L2: the float32 weights ``-2q`` (exact, or ``inf`` where ``q`` is
    near float32's limit, which makes the stage non-finite and trivial),
    ones, per slice the factor ``1 - 3γ`` and per (slice, member)
    ``C·(1 - 3γ)`` less the absolute term. Inner-product family: the
    queries themselves as weights, and per row and slice the pad
    ``2γ·‖x_s‖·‖q_s‖`` plus the absolute term. ``C = ‖q_s‖²`` and
    ``‖q_s‖`` come from the members' queries widened to float64, not
    from the float32 ``query_norms``, which under- and overflow at
    magnitudes float32 data reaches.
    """
    q64 = scan.queries.astype(np.float64)
    bounds = np.asarray(scan.slices.boundaries)
    widths = np.diff(bounds)
    gamma, tiny = _phase_one_pad(widths)
    squares = np.add.reduceat(q64 * q64, bounds[:-1], axis=1)
    if scan.metric is Metric.L2:
        with np.errstate(over="ignore"):
            scan._f32_weights = (-2.0 * q64).astype(np.float32)
        scan._f32_ones = np.ones(int(widths.max()), dtype=np.float32)
        scan._f32_keep = 1.0 - 3.0 * gamma
        scan._f32_const = np.ascontiguousarray(
            (squares * scan._f32_keep - tiny).T
        )
    else:
        scan._f32_weights = scan.queries
        scan._f32_pad = (2.0 * gamma * np.sqrt(squares), tiny)
        scan._f32_cap = _ip_cap(scan, norms, scan.query_of)


def _ip_cap(scan, norms: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Per row and slice, the inner-product family's phase-one pad
    ``2γ·‖x_s‖·‖q_s‖`` plus the absolute term (:func:`_attach_f32`)."""
    pad, tiny = scan._f32_pad
    return norms * pad[owner] + tiny


def _list_scores(scan, block) -> np.ndarray:
    """Slice 0 of one probed list for every member probing it: the
    list-major :class:`ShardGroupScan`'s phase one, ``(rows, members)``.

    The list's slab-0 rows are read in place — no gather, no take — and
    scored against the stacked weights of its members with one float32
    ``sgemm``. The rest is :func:`_f32_padded_scores`' arithmetic, each
    element built from the same operands in the same order: for L2 the
    rows' ``Â`` (squared in the scan's float32 scratch, one ``sgemv``
    against ones) once per list, times ``1 - 3γ``, plus the product, plus
    the member's constant; for the inner-product family the negated
    product less ``outer(‖x_0‖, 2γ·‖q_0‖)`` and the absolute term.
    :func:`_phase_one_pad`'s lemma bounds a dot product in any summation
    order, so a GEMM's order keeps the bound sound.
    """
    start, stop = scan.slices.slice_range(0)
    n, width = block.ids.size, stop - start
    rows = scan._slabs.base[0][block.start : block.start + n]
    members = block.members
    linear = rows @ scan._f32_weights[members, start:stop].T
    if scan._f32_cap is not None:
        approx = np.negative(linear, dtype=np.float64)
        pad, tiny = scan._f32_pad
        approx -= (
            np.multiply.outer(block.norms[:, 0], pad[members, 0]) + tiny[0]
        )
        trivial = -np.inf
    else:
        squares = np.square(rows, out=scan._buffers.f32(n, width))
        approx = np.multiply(
            np.dot(squares, scan._f32_ones[:width]),
            scan._f32_keep[0],
            dtype=np.float64,
        )[:, None] + linear
        approx += scan._f32_const[0].take(members)
        trivial = 0.0
    if not np.isfinite(approx.sum()):
        approx[~np.isfinite(approx)] = trivial
    return approx


def _list_survivors(scan, block, approx: np.ndarray) -> np.ndarray:
    """Flat indices of one list's stage-0 scores that survive:
    the bound held against each column's member threshold, under the
    list's row mask and the members' prewarm exclusions."""
    members = block.members
    bound = approx
    if scan._suffix is not None and scan.slices.n_slices > 1:
        # suffix_ip_bounds' column 1, summed in its order (last slice
        # first) for every (row, member) pair at once.
        qnorms, norms = scan._qnorms, block.norms
        last = scan.slices.n_slices - 1
        raw = np.multiply.outer(norms[:, last], qnorms[members, last])
        for j in range(last - 1, 0, -1):
            raw += np.multiply.outer(norms[:, j], qnorms[members, j])
        bound = approx - (raw * (1.0 + BOUND_REL_EPS) + BOUND_ABS_EPS)
    keep = bound <= scan._thresholds[members]
    if block.live is not None:
        keep &= block.live[:, None]
    for cols, kept in block.drops:
        keep[:, cols] &= kept[:, None]
    return np.flatnonzero(keep)


def _attach_sq8(
    scan, queries, code_err, code_lo, code_scale, query_norms
) -> None:
    """The SQ8 side state both arities carry beside their code slabs.

    Everything :func:`_sq8_padded_scores` needs that does not depend on
    the row is computed here, once per scan, in float64: the float32
    ``sgemv`` weights per dimension, and per (member, slice) the
    constant term with the whole rounding pad already taken off it
    (``-inf`` where float32 could overflow). ``queries`` is one query
    or the group's ``(n_queries, dim)`` block; a single scan is member
    0 of a group of one.
    """
    l2 = scan.metric is Metric.L2
    if not l2 and query_norms is None:
        raise ValueError("inner-product SQ8 pruning requires query_norms")
    scan._err = np.asarray(code_err)
    scan._qnorms64 = (
        None
        if l2
        else np.atleast_2d(np.asarray(query_norms, dtype=np.float64))
    )
    #: Candidates re-ranked against fp32 by the last survivors() call
    #: (the harmony_rerank_candidates_total metric).
    scan.reranked = 0

    lo = np.asarray(code_lo, dtype=np.float64)
    scale = np.asarray(code_scale, dtype=np.float64)
    q64 = np.atleast_2d(queries).astype(np.float64)
    bounds = np.asarray(scan.slices.boundaries)
    widths = np.diff(bounds)

    def per_slice(values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(values, bounds[:-1], axis=-1)

    gamma, tiny = _phase_one_pad(widths)
    if l2:
        u = q64 - lo
        square = scale * scale
        linear = -2.0 * scale * u
        c = per_slice(u * u)
        keep = 1.0 - 3.0 * gamma
        const = c * keep - 2.0**-50 * per_slice(lo * lo) - tiny
        safe = 65025.0 * per_slice(square) + c < _F32_SAFE
        scan._sq8_keep = keep
    else:
        linear = -(scale * q64)
        lo_q = lo * q64
        reach = 255.0 * per_slice(np.abs(linear))
        const = -per_slice(lo_q) - (
            2.0 * gamma * reach
            + 2.0 * (widths + 4) * _F64_U * per_slice(np.abs(lo_q))
            + tiny
        )
        safe = reach < _F32_SAFE
    scan._sq8_const = np.where(safe, const, -np.inf)
    # Unsafe slices may overflow the cast; their weights are never read.
    with np.errstate(over="ignore"):
        scan._sq8_linear = linear.astype(np.float32)
        if l2:
            scan._sq8_square = square.astype(np.float32)


class ShardScan:
    """Pipelined partial-distance scan of one (query, shard) batch.

    Exact at every stage: each slice is scored with the float64
    widen-subtract-``einsum`` kernel and accumulated in place, so the
    running sums are the final scores' own partial sums. It is the
    per-query reference (``batch_queries=False``, the single-query
    path) and the simulator's stepping unit; the fused two-phase scans
    are checked against it.

    The scan keeps *dense* bookkeeping: after every prune it compacts
    ids, accumulated scores, norm tables and the alive index array down
    to the alive candidates, so each slice stage takes only surviving
    rows out of the slab and does no bound arithmetic for already-dead
    candidates. Rows themselves are never held or compacted.
    :attr:`alive` is a full-length mask over the *original* candidate
    order, built on demand for reporting.

    Args:
        base: full base-vector matrix (rows indexed by global id).
            Optional when ``rows`` or ``part`` is given.
        candidate_ids: global ids of this shard's candidates.
        query: the query vector, full dimensionality.
        slices: the plan's dimension slicing.
        metric: L2 or inner-product family.
        base_slice_norms: per-candidate per-slice norms (IP only),
            shape ``(n_candidates, n_slices)``.
        rows: the candidates' own rows ``(n_candidates, dim)``,
            replacing ``base``. Either way the block is a slab source
            whose slabs are its slice column views; nothing is copied
            out of it until a stage scores it.
        query_norms: per-slice query norms (IP only), hoisted out of
            the scan when the caller computes them once per query.
        part: a gathered :class:`~repro.core.layout.CandidatePart`
            (the executor's form), replacing ``base`` /
            ``candidate_ids`` / ``rows`` / ``base_slice_norms``.
    """

    def __init__(
        self,
        base: np.ndarray | None = None,
        candidate_ids: np.ndarray | None = None,
        query: np.ndarray | None = None,
        slices: DimensionSlices | None = None,
        metric: Metric = Metric.L2,
        base_slice_norms: np.ndarray | None = None,
        rows: np.ndarray | None = None,
        query_norms: np.ndarray | None = None,
        part: CandidatePart | None = None,
    ) -> None:
        if part is None:
            ids = np.asarray(candidate_ids, dtype=np.int64)
            if rows is not None:
                source, local = rows, np.arange(ids.size, dtype=np.intp)
            elif base is not None:
                source, local = base, np.asarray(ids, dtype=np.intp)
            else:
                raise ValueError("need either base or pre-gathered rows")
            part = CandidatePart(
                ids, local, ShardSlabs.of_rows(source, slices),
                base_slice_norms,
            )
        self.candidate_ids = part.ids
        self.query = np.asarray(query, dtype=np.float32)
        self.slices = slices
        self.metric = metric
        self._slabs = part.slabs
        self._local = part.local
        n = self.candidate_ids.size
        self._buffers = _StageBuffers(n, part.slabs)
        self.ids = self.candidate_ids
        self.accumulated = np.zeros(n, dtype=np.float64)
        self._orig_idx = np.arange(n, dtype=np.intp)
        self.done: list[int] = []
        self._done_mask = np.zeros(slices.n_slices, dtype=bool)
        self._canonical = True
        if metric is Metric.L2:
            self._contrib = None
            self._suffix = None
        else:
            if part.norms is None:
                raise ValueError(
                    "inner-product pruning requires base_slice_norms"
                )
            if query_norms is None:
                query_norms = query_slice_norms(self.query, slices)
            contrib = np.asarray(part.norms, dtype=np.float64) * (
                np.asarray(query_norms, dtype=np.float64)[None, :]
            )
            self._contrib = contrib
            self._suffix = suffix_ip_bounds(contrib)

    @property
    def n_candidates(self) -> int:
        return self.candidate_ids.size

    @property
    def n_alive(self) -> int:
        return self.ids.size

    @property
    def alive(self) -> np.ndarray:
        """Which of the original candidates are still alive (a fresh
        full-length mask; pruning maintains only the index arrays)."""
        mask = np.zeros(self.n_candidates, dtype=bool)
        mask[self._orig_idx] = True
        return mask

    @property
    def is_complete(self) -> bool:
        """True when every slice has been accumulated."""
        return len(self.done) == self.slices.n_slices

    def process_slice(self, slice_id: int) -> int:
        """Accumulate slice ``slice_id`` for the alive candidates.

        Returns:
            Number of candidate rows actually processed (the compute
            volume the simulator should charge for this stage).
        """
        return self._advance(slice_id, self._exact_slice)

    def _advance(self, slice_id: int, score) -> int:
        """One stage: take the alive rows' slice columns out of the
        slab, ``score(taken, f64, slice_id, cols)`` onto the
        accumulator, then the done/canonical-order bookkeeping."""
        if self._done_mask[slice_id]:
            raise ValueError(f"slice {slice_id} already processed")
        n = self.ids.size
        if n:
            cols = slice(*self.slices.slice_range(slice_id))
            taken, f64 = self._buffers.stage(
                self._slabs, slice_id, self._local
            )
            self.accumulated += score(taken, f64, slice_id, cols)
        if slice_id != len(self.done):
            self._canonical = False
        self.done.append(slice_id)
        self._done_mask[slice_id] = True
        return int(n)

    def _exact_slice(self, taken, f64, slice_id: int, cols: slice):
        return _slice_scores(taken, self.query[cols], self.metric, f64)

    def lower_bounds(self) -> np.ndarray:
        """Lossless lower bound on every alive candidate's final score.

        For L2 the accumulated sum is itself the bound (remaining
        slices only add non-negative terms). For inner product the
        remaining slices can still *decrease* the score by at most the
        Cauchy-Schwarz cap, which is subtracted. Canonical slice order
        reads the cap straight out of the precomputed suffix-sum table;
        out-of-order processing (the simulator's staggered/adaptive
        schedules) falls back to summing the remaining columns.
        """
        if self.metric is Metric.L2 or self.is_complete:
            return self.accumulated
        assert self._contrib is not None and self._suffix is not None
        if self._canonical:
            raw = self._suffix[:, len(self.done)]
        else:
            remaining = np.flatnonzero(~self._done_mask)
            raw = self._contrib[:, remaining].sum(axis=1)
        return self.accumulated - (raw * (1.0 + BOUND_REL_EPS) + BOUND_ABS_EPS)

    def prune(self, threshold: float) -> int:
        """Kill candidates whose lower bound exceeds ``threshold``
        (a float, or the one-element array a group of one is given).

        Uses a strict comparison so boundary ties survive to the heap,
        keeping results identical to an unpruned scan. Survivors are
        compacted into dense arrays. Returns the number of candidates
        pruned by this call.
        """
        if not np.isfinite(threshold) or self.ids.size == 0:
            return 0
        keep = np.flatnonzero(self.lower_bounds() <= threshold)
        killed = self.ids.size - keep.size
        if killed:
            self._compact(keep)
        return killed

    def _compact(self, keep: np.ndarray) -> None:
        """Shrink the bookkeeping to the positions ``keep`` — index
        arrays and per-candidate tables only; no row moves."""
        self.ids = self.ids.take(keep)
        self.accumulated = self.accumulated.take(keep)
        self._local = self._local.take(keep)
        self._orig_idx = self._orig_idx.take(keep)
        if self._contrib is not None:
            self._contrib = _kept_rows(self._contrib, keep)
            self._suffix = _kept_rows(self._suffix, keep)

    def survivors(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, final scores) of alive candidates; requires completion."""
        if not self.is_complete:
            raise RuntimeError("scan has unprocessed slices")
        return self.ids, self.accumulated


def _covering(handles: "list[ShardSlabs]") -> ShardSlabs:
    """The one slab handle that addresses every group member's rows.

    Members of a group share their shard's slabs; a gather attaches the
    delta segment only where the member holds delta rows, so any handle
    with it attached serves them all."""
    return next((h for h in handles if h.delta is not None), handles[0])


class ShardGroupScan:
    """Fused multi-query scan of one shard (the batched executor path).

    Holds every group member's candidates at once, in dense arrays that
    concatenate the members' in member order: ids, owning query,
    accumulated scores, bound tables, and the alive rows' shard-local
    indices — so pruning is one vectorized pass against each row's
    *own* query threshold and one take per array, and rows stay in the
    shard's slabs.

    Two phases. Each (shard, slice) stage scores the alive rows with
    float32 BLAS, a buffer-sized block of the dense rows at a time
    whichever members they belong to, padded down so the accumulated
    value never exceeds the exact float64 partial
    (:func:`_f32_padded_scores`): pruning stays lossless, and a
    candidate pruned on the way never pays the exact kernel's per-row
    widen-subtract-``einsum`` loop. :meth:`survivors` re-scores what is
    left with that exact kernel in the same blocks
    (:func:`_exact_scores`) and prunes once more on the exact scores, so
    ids and distances are row for row those of the per-query
    :class:`ShardScan`. Phase one's survivor count can move by a few
    rows with the BLAS build or thread count; the answers cannot.

    **List-major first slice.** Opened with ``lists`` (the layout's
    per-list blocks, :meth:`~repro.core.layout.ShardPackedBase.
    _list_rows`), the group's base candidates are not gathered member by
    member: slice 0 scores each probed list once, one ``sgemm`` of its
    slab range read in place against every member probing it
    (:func:`_list_scores`), and :meth:`prune` turns only the survivors
    into the dense arrays (:func:`_list_survivors`). From there the scan
    is the one above, so the answers are the same bits.

    Args:
        parts: one gathered :class:`~repro.core.layout.CandidatePart`
            per member, all of the same shard; the dense arrays are
            their concatenation in member order. With ``lists``, the
            members' delta-segment candidates.
        queries: the members' query vectors, ``(n_queries, dim)``
            float32 (or a sequence of them).
        slices: the plan's dimension slicing.
        metric: L2 or inner-product family.
        query_norms: per-query per-slice norms (IP only),
            ``(n_queries, m)``.
        lists: float32 only — the members' base candidates as
            :class:`~repro.core.layout._ListRows` blocks, whose member
            indices count from 0 in ``parts`` order.
    """

    def __init__(
        self,
        parts: "list[CandidatePart]",
        queries: np.ndarray,
        slices: DimensionSlices,
        metric: Metric = Metric.L2,
        query_norms: np.ndarray | None = None,
        lists: "list | None" = None,
    ) -> None:
        sizes = [part.ids.size for part in parts]
        self.ids = np.concatenate([part.ids for part in parts])
        self.query_of = np.repeat(np.arange(len(parts), dtype=np.intp), sizes)
        self.queries = np.asarray(queries, dtype=np.float32)
        self.slices = slices
        self.metric = metric
        #: Shard-local indices of the alive rows, in dense order.
        #: Pruning shrinks this, never a row block.
        self._local = np.concatenate([part.local for part in parts])
        self._slabs = _covering([part.slabs for part in parts])
        #: The float32 slabs survivors re-rank against (the SQ8 scan
        #: streams codes and keeps these beside them).
        self._exact = _covering(
            [p.slabs if p.exact is None else p.exact for p in parts]
        )
        self._query_slabs = _query_slabs(self.queries, slices)
        #: The list-major first slice's blocks until :meth:`prune`
        #: settles them; then their stage-0 scores; then None.
        self._lists = lists
        self._pending = 0
        rows = max(sizes)
        if lists:
            counts = np.array(sizes, dtype=np.int64)
            for block in lists:
                counts[block.members] += block.counts
                rows = max(rows, block.ids.size)
            self._pending = int(counts.sum() - sum(sizes))
            rows = max(rows, int(counts.max()))
        if not self._pending:
            self._lists = None
        self._buffers = _StageBuffers(rows, self._slabs)
        self.accumulated = np.zeros(self.ids.size, dtype=np.float64)
        self.done: list[int] = []
        self._done_mask = np.zeros(slices.n_slices, dtype=bool)
        #: The per-query thresholds the last prune() saw, which
        #: survivors() holds the exact scores against.
        self._thresholds: np.ndarray | None = None
        self._f32_cap = None
        norms = None
        if metric is Metric.L2:
            self._suffix = None
        else:
            if query_norms is None or any(p.norms is None for p in parts):
                raise ValueError(
                    "inner-product pruning requires base_slice_norms "
                    "and query_norms"
                )
            norms = np.asarray(
                np.concatenate([part.norms for part in parts], axis=0),
                dtype=np.float64,
            )
            self._qnorms = np.asarray(query_norms, dtype=np.float64)
            self._suffix = suffix_ip_bounds(
                norms * self._qnorms[self.query_of]
            )
        if parts[0].err is None:  # float32 rows: phase one bounds them
            _attach_f32(self, norms)

    @property
    def n_alive(self) -> int:
        return self.ids.size + self._pending

    @property
    def is_complete(self) -> bool:
        return len(self.done) == self.slices.n_slices

    def process_slice(self, slice_id: int) -> int:
        """One dimension stage over the whole group: the alive rows'
        phase-one bounds (:func:`_f32_padded_scores`), one buffer-sized
        block of dense rows at a time — and, opened list-major, slice 0
        of every probed list (:func:`_list_scores`)."""
        if self._lists is not None and (self.done or slice_id != 0):
            raise RuntimeError(
                "a list-major scan starts at slice 0 and prunes after it"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            return self._advance(slice_id, self._bound_blocks)

    def _advance(self, slice_id: int, stage) -> int:
        """One stage: ``stage(slice_id)`` adds the slice's scores of the
        alive rows onto the accumulator; then the done bookkeeping."""
        if self._done_mask[slice_id]:
            raise ValueError(f"slice {slice_id} already processed")
        n = self.n_alive
        if n:
            stage(slice_id)
        self.done.append(slice_id)
        self._done_mask[slice_id] = True
        return int(n)

    def _bound_blocks(self, slice_id: int) -> None:
        step = self._buffers.rows
        for start in range(0, self.ids.size, step):
            block = slice(start, start + step)
            self.accumulated[block] += _f32_padded_scores(
                self, block, slice_id
            )
        if self._lists is not None:
            self._lists = [
                (block, _list_scores(self, block)) for block in self._lists
            ]

    def lower_bounds(self) -> np.ndarray:
        """Per-row lossless lower bound (same arithmetic as ShardScan)."""
        if self.metric is Metric.L2 or self.is_complete:
            return self.accumulated
        assert self._suffix is not None
        raw = self._suffix[:, len(self.done)]
        return self.accumulated - (raw * (1.0 + BOUND_REL_EPS) + BOUND_ABS_EPS)

    def prune(self, thresholds: np.ndarray) -> int:
        """Compact away rows beating their own query's threshold.

        Only index arrays and per-row tables move — one take each at the
        kept positions — and the next stage takes the survivors' slice
        columns straight from the slab. After a list-major slice 0, the
        lists' survivors join the dense arrays here.

        Args:
            thresholds: per-query thresholds, ``(n_queries,)``; ``inf``
                entries (heap not yet full) keep all their rows.

        Returns:
            Number of rows pruned by this call.
        """
        self._thresholds = np.asarray(thresholds, dtype=np.float64)
        killed = 0
        if self.ids.size:
            keep = np.flatnonzero(
                self.lower_bounds() <= self._thresholds[self.query_of]
            )
            killed = self.ids.size - keep.size
            if killed:
                self._compact_dense(keep)
        if self._lists is not None and self.done:
            killed += self._settle_lists()
        return killed

    def _settle_lists(self) -> int:
        """The list-major slice 0's survivors into the dense arrays,
        owner-major again. Returns the pairs it pruned.

        One array at a time, each list's stage-0 scores dropped once its
        survivors' are read, so the peak holds little beyond the scores
        and one survivor-sized array or two.
        """
        lists, self._lists = self._lists, None
        pending, self._pending = self._pending, 0
        dense = self.ids.size
        kept = [_list_survivors(self, *item) for item in lists]
        accumulated = [self.accumulated]
        for i, flat in enumerate(kept):
            accumulated.append(lists[i][1].ravel().take(flat))
            lists[i] = lists[i][0]  # the scores are read
        rows, owner = [], [self.query_of]
        for block, flat in zip(lists, kept):
            row, col = np.divmod(flat, block.members.size)
            rows.append(row)
            owner.append(block.members.take(col))
        del kept
        owner = np.concatenate(owner)
        # Stable sorts of integers of 16 bits or fewer are radix sorts.
        narrow = np.uint16 if self.queries.shape[0] <= 1 << 16 else np.intp
        order = np.argsort(owner.astype(narrow), kind="stable")

        def merged(head, per_list) -> np.ndarray:
            return np.concatenate(
                [head] + [per_list(b, row) for b, row in zip(lists, rows)]
            ).take(order, axis=0)

        self.accumulated = np.concatenate(accumulated).take(order)
        del accumulated
        if self._suffix is not None:
            norms = np.concatenate(
                [b.norms.take(row, axis=0) for b, row in zip(lists, rows)]
            )
            listed = owner[dense:]
            self._suffix = np.concatenate([
                self._suffix, suffix_ip_bounds(norms * self._qnorms[listed])
            ]).take(order, axis=0)
            self._f32_cap = np.concatenate(
                [self._f32_cap, _ip_cap(self, norms, listed)]
            ).take(order, axis=0)
        self.ids = merged(self.ids, lambda b, row: b.ids.take(row))
        self._local = merged(self._local, lambda b, row: row + b.start)
        self.query_of = owner.take(order)
        return pending - (owner.size - dense)

    def _compact_dense(self, keep: np.ndarray) -> None:
        """Compact the dense per-row bookkeeping to the positions
        ``keep``."""
        self.ids = self.ids.take(keep)
        self.query_of = self.query_of.take(keep)
        self.accumulated = self.accumulated.take(keep)
        self._local = self._local.take(keep)
        if self._suffix is not None:
            self._suffix = _kept_rows(self._suffix, keep)
        if self._f32_cap is not None:
            self._f32_cap = _kept_rows(self._f32_cap, keep)

    def survivors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ids, exact scores, owning query) of the surviving rows.

        Phase two: every member's survivors re-ranked in one blocked
        pass (:func:`_exact_scores`), then held against the thresholds
        the last :meth:`prune` saw — the padded bound may have kept a
        few rows the exact scan drops there — so what is returned is row
        for row what the per-query exact scan returns.
        """
        if not self.is_complete or self._lists is not None:
            raise RuntimeError("scan has unprocessed slices")
        ids, owner = self.ids, self.query_of
        scores = _exact_scores(
            self._exact, self._local, owner, self._query_slabs,
            self.metric, self._buffers,
        )
        if self._thresholds is not None:
            keep = np.flatnonzero(scores <= self._thresholds[owner])
            if keep.size < scores.size:
                ids, scores, owner = (
                    ids.take(keep), scores.take(keep), owner.take(keep)
                )
        return ids, scores, owner


class SQ8ShardScan(ShardScan):
    """Two-phase scan: SQ8 candidate generation, exact fp32 re-rank.

    Phase one walks the *uint8* code slabs through the dimension
    pipeline — a quarter of the float32 row traffic — accumulating
    per-slice partial scores that are *padded down* by the packed
    reconstruction-error norms (:func:`_sq8_padded_scores`), so every
    accumulated value lower-bounds the exact score and pruning stays
    lossless: any candidate the fp32 scan would keep, this scan keeps
    too. Phase two (:meth:`survivors`) re-ranks the few remaining
    candidates against their float32 slabs (:func:`_exact_scores`), so
    final scores (and therefore heap contents) are bitwise identical to
    the fp32 serial oracle. :meth:`lower_bounds` deflates once more by
    the standard float-safety epsilons, so float rounding can never
    flip a keep into a kill.

    Args:
        part: the candidates' :class:`~repro.core.layout.CandidatePart`
            as ``gather_sq8`` returns it — uint8 code slabs in
            ``slabs``, per-slice error norms in ``err``, and the
            shard's float32 slabs (``exact``) that survivors re-rank
            against at the same ``local`` indices.
        code_lo / code_scale: per-dimension dequantization params.
        scan: ``query``, ``slices``, ``metric``, ``query_norms`` as on
            :class:`ShardScan`.
    """

    def __init__(self, part, code_lo, code_scale, **scan) -> None:
        # The code slabs ride in the parent's slab slot: index
        # compaction and slice addressing are identical, only the
        # per-slice scorer differs.
        super().__init__(part=part, **scan)
        self._exact = part.exact
        _attach_sq8(
            self, self.query, part.err,
            code_lo, code_scale, scan.get("query_norms"),
        )

    def process_slice(self, slice_id: int) -> int:
        """Accumulate one slice's error-padded SQ8 partial scores."""
        return self._advance(slice_id, self._padded_slice)

    def _padded_slice(self, taken, f64, slice_id: int, cols: slice):
        return _sq8_padded_scores(
            self, taken, f64, 0, slice_id, cols, self._err[:, slice_id]
        )

    def lower_bounds(self) -> np.ndarray:
        return _deflated(super().lower_bounds())

    def _compact(self, keep: np.ndarray) -> None:
        super()._compact(keep)
        self._err = _kept_rows(self._err, keep)

    def survivors(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, *exact* scores): re-rank survivors against fp32 slabs."""
        if not self.is_complete:
            raise RuntimeError("scan has unprocessed slices")
        n = self.ids.size
        self.reranked = int(n)
        return self.ids, _exact_scores(
            self._exact, self._local, np.zeros(n, dtype=np.intp),
            _query_slabs(self.query[None, :], self.slices), self.metric,
            self._buffers,
        )


class SQ8ShardGroupScan(ShardGroupScan):
    """Fused multi-query SQ8 scan (batched sibling of SQ8ShardScan).

    Phase one advances every group member's uint8 codes through each
    (shard, slice) stage with the same error-padded arithmetic as
    :class:`SQ8ShardScan`; phase two is :class:`ShardGroupScan`'s — one
    blocked re-rank of every member's survivors against the shard's
    float32 slabs in canonical slice order — so the merged heaps stay
    bitwise identical to the fp32 serial oracle.

    Args:
        parts: one ``gather_sq8`` record per member.
        code_lo / code_scale: per-dimension dequantization params.
        scan: the remaining arguments of :class:`ShardGroupScan`.
    """

    def __init__(self, parts: list, code_lo, code_scale, **scan) -> None:
        super().__init__(parts, **scan)
        _attach_sq8(
            self,
            self.queries,
            np.concatenate([part.err for part in parts], axis=0),
            code_lo, code_scale, scan.get("query_norms"),
        )

    def process_slice(self, slice_id: int) -> int:
        """One error-padded SQ8 dimension stage over the whole group."""
        return self._advance(slice_id, self._padded_members)

    def _padded_members(self, slice_id: int) -> None:
        """Member by member — each its contiguous segment of the dense
        rows — against the weights :func:`_attach_sq8` hoisted for it,
        the arithmetic :class:`SQ8ShardScan` runs per query."""
        cols = slice(*self.slices.slice_range(slice_id))
        cuts = np.searchsorted(
            self.query_of, np.arange(self.queries.shape[0] + 1)
        ).tolist()
        for q, (start, stop) in enumerate(zip(cuts, cuts[1:])):
            if start == stop:
                continue
            seg = slice(start, stop)
            taken, f64 = self._buffers.stage(
                self._slabs, slice_id, self._local[seg]
            )
            self.accumulated[seg] += _sq8_padded_scores(
                self, taken, f64, q, slice_id, cols, self._err[seg, slice_id]
            )

    def lower_bounds(self) -> np.ndarray:
        return _deflated(super().lower_bounds())

    def _compact_dense(self, keep: np.ndarray) -> None:
        super()._compact_dense(keep)
        self._err = _kept_rows(self._err, keep)

    def survivors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ids, *exact* scores, owning query): the shared re-rank, with
        the rows it re-ranked counted."""
        survivors = super().survivors()
        self.reranked = int(self.ids.size)
        return survivors
