"""Dimension-level early-stop pruning (paper Sections 3.1 and 4.3).

:class:`ShardScan` tracks one (query, shard) candidate batch through
the dimension pipeline: it accumulates per-slice partial scores,
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
stage buffers the scan object owns (never shared: the thread backend
runs shard-groups concurrently). Pruning therefore moves index arrays
only.

Score convention: smaller is better. For L2 the accumulated partial sum
itself lower-bounds the final score; for inner product the bound
subtracts the Cauchy-Schwarz cap on the remaining slices' contribution,
read from a suffix-sum table precomputed at scan construction.

:class:`SQ8ShardScan` / :class:`SQ8ShardGroupScan` are the two-phase
siblings: they walk uint8 codes with error-padded (still lossless)
bounds and re-rank survivors against float32. What differs between the
precisions — one slice's scores, the error padding, the exact re-rank —
is three module-level helpers each arity calls; what differs between
the arities is the bookkeeping around them.
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

    ``stage`` takes a slice's alive rows out of the slab into the
    first (the slab's own dtype) and hands back, beside them, a float64
    scratch of the same shape for the distance kernel to widen into.
    Both are flat and viewed as C-contiguous ``(n, width)`` from offset
    0, so any stage no larger than the first reuses the same memory
    with the operand layout the einsum reduction's bits depend on.
    Owned by one scan, never module-global: scans run concurrently on
    the thread backend.
    """

    __slots__ = ("_taken", "_f64")

    def __init__(self, n_rows: int, slabs: ShardSlabs) -> None:
        size = n_rows * slabs.max_width
        self._taken = np.empty(size, dtype=slabs.base[0].dtype)
        self._f64 = np.empty(size, dtype=np.float64)

    def f64(self, n: int, width: int) -> np.ndarray:
        return self._f64[: n * width].reshape(n, width)

    def stage(self, slabs: ShardSlabs, block: int, local: np.ndarray):
        n, width = local.size, slabs.base[block].shape[1]
        taken = self._taken[: n * width].reshape(n, width)
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
#: the phase-one pad is written against. ``_F32_TINY`` is the absolute
#: error budget of one term: a weight or a product under float32's
#: normal range (2**-126) is rounded with an absolute, not a relative,
#: error — or dropped whole by a flush-to-zero BLAS build — and a weight
#: is then multiplied by a code (< 2**8) or its square (< 2**16).
#: ``_F32_SAFE`` is the largest sum of a stage's term magnitudes for
#: which every float32 partial sum, in any order, is still finite.
_F32_U = 2.0**-24
_F64_U = 2.0**-53
_F32_TINY = 2.0**-108
_F32_SAFE = 1e37


def _sq8_padded_scores(
    scan, codes, f64, q: int, slice_id: int, cols: slice, err
) -> np.ndarray:
    """One slice's SQ8 scores, padded down to bound the exact ones.

    Nothing is decoded. The codes (integers up to 255, exact in
    float32) are cast once into a float32 view of the scan's ``f64``
    scratch and scored against the weights :func:`_attach_sq8` hoisted
    for member ``q``, with BLAS — phase one is a bound, not a bit
    pattern, so any summation order will do. Writing ``c`` for a row's
    codes, ``s`` / ``lo`` for the slice's scale / offset, ``u = q - lo``
    and ``w`` for the slice width:

    * L2: ``||decode(c) - q||² = A - 2X + C`` with ``A = Σ s²c²``,
      ``X = Σ (s∘u)·c``, ``C = Σ u²`` — ``sgemv`` of the squared block
      against ``s²``, of the block against ``-2 s∘u``, and a per
      (member, slice) constant;
    * IP family: ``-decode(c)·q = Y - lo·q`` with ``Y = -Σ (s∘q)·c`` —
      one ``sgemv`` and a constant.

    **Rounding.** With ``γ = (w+2)·u / (1 - (w+2)·u)``, ``u = 2⁻²⁴``, a
    float32 dot product of ``w`` terms against weights that were
    themselves rounded to float32 is off by at most ``γ · Σ|terms|``
    whatever order the library adds them in (Higham, *Accuracy and
    Stability*, §3.1), so

    * ``|Â - A| ≤ γ·A`` (all terms non-negative),
    * ``|2X̂ - 2X| ≤ 2γ·Σ|s∘u|·c ≤ 2γ·√(A·C) ≤ γ·(A + C)``
      (Cauchy-Schwarz, then ``2√(AC) ≤ A + C``),
    * ``|Ŷ - Y| ≤ γ·Σ|s∘q|·c ≤ γ·G``, ``G = 255·Σ|s∘q|`` (``c ≤ 255``),

    hence ``A - 2X + C ≥ (Â - 2X̂ + C) - ε·(Â + C)`` for ``ε = 3γ ≥
    2γ/(1-γ)``, and ``Y ≥ Ŷ - 2γ·G``. The slack left in ``3γ`` and
    ``2γ`` (at least ``γ/2``, against float64 errors ``2²⁹`` times
    smaller) covers the float64 roundings of the weights, constants and
    final sums. Two absolute terms ride along. ``w·_F32_TINY`` is for
    products in float32's denormal range, where the relative model
    fails. The other is float64's: the error table bounds the row's
    distance to ``decode(c)`` *as float64 computes it*, which lies up
    to ``2⁻⁵²·(|s·c| + |lo|)`` per dimension from the real-number
    decode expanded above — ``2⁻⁵⁰·Σ lo²`` for L2, and for the IP
    family ``2(w+4)·2⁻⁵³·Σ|lo∘q|``, which also spans the ``w`` roundings
    of ``lo·q`` here and in the exact score the bound is held against
    (an offset far larger than the span leaves those to cancellation).

    All of it is subtracted first; the stage then pads by the packed
    error norm exactly as the decode form did: for L2 ``max(0,
    sqrt(approx) - err)**2`` (reverse triangle inequality), for the
    inner-product family ``approx - ||q_s|| * err`` (Cauchy-Schwarz).
    ``err`` was rounded *up* at pack time.

    **Range.** float32 overflows where float32 *data* does not (squares
    pass 3.4e38 near 1.8e19), and ``inf - inf`` is NaN, which compares
    False against every threshold — a pruned true neighbour. Where the
    stage's term magnitudes could exceed ``_F32_SAFE``
    (:func:`_attach_sq8` marks the (member, slice) with a ``-inf``
    constant) nothing is computed and the stage returns the bound that
    is true of anything: 0 for L2, ``-inf`` for the inner-product
    family. Elsewhere every intermediate is finite by construction.
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


def _exact_scores(
    exact: ShardSlabs,
    local: np.ndarray,
    query: np.ndarray,
    slices: DimensionSlices,
    metric: Metric,
    buffers: _StageBuffers,
    taken: np.ndarray,
) -> np.ndarray:
    """Exact scores of float32 rows ``local`` in canonical slice order.

    One small take per slab — into ``taken``, the flat float32 block
    :func:`_rerank_block` sized for the survivors, reused by every slab
    — then the same per-row float64 reduction the fp32 scan
    accumulates, so re-ranked SQ8 survivors carry bitwise the scores
    the fp32 oracle reports.
    """
    n = local.size
    total = np.zeros(n, dtype=np.float64)
    for slice_id in range(slices.n_slices):
        start, stop = slices.slice_range(slice_id)
        width = stop - start
        rows = exact.take(
            slice_id, local, out=taken[: n * width].reshape(n, width)
        )
        total += _slice_scores(
            rows, query[start:stop], metric, buffers.f64(n, width)
        )
    return total


def _rerank_block(exact: ShardSlabs, n_rows: int) -> np.ndarray:
    """The float32 block one ``survivors()`` call re-ranks through."""
    return np.empty(n_rows * exact.max_width, dtype=exact.base[0].dtype)


def _deflated(bounds: np.ndarray) -> np.ndarray:
    """Error-padded bounds, deflated once more for float safety."""
    return bounds - (np.abs(bounds) * BOUND_REL_EPS + BOUND_ABS_EPS)


def _kept_rows(table: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``table[keep]`` for a 2-D table: a row take at the kept indices,
    an order of magnitude cheaper than a boolean-mask row copy."""
    return table.take(np.flatnonzero(keep), axis=0)


def _attach_sq8(
    scan, queries, code_err, exact, code_lo, code_scale, query_norms
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
    scan._exact = exact
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

    gamma = (widths + 2) * _F32_U / (1.0 - (widths + 2) * _F32_U)
    tiny = widths * _F32_TINY
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

    The scan keeps *dense* bookkeeping: after every prune it compacts
    ids, accumulated scores, norm tables and the alive index array down
    to the alive candidates, so each slice stage takes only surviving
    rows out of the slab and does no bound arithmetic for already-dead
    candidates. Rows themselves are never held or compacted.
    :attr:`alive` remains a full-length mask over the *original*
    candidate order for reporting.

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
        self.alive = np.ones(n, dtype=bool)
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
        keep = self.lower_bounds() <= threshold
        if keep.all():
            return 0
        return self._compact(keep)

    def _compact(self, keep: np.ndarray) -> int:
        """Shrink the bookkeeping to ``keep`` — index arrays and
        per-candidate tables only; no row moves."""
        killed = int(keep.size) - int(keep.sum())
        self.alive[self._orig_idx[~keep]] = False
        self.ids = self.ids[keep]
        self.accumulated = self.accumulated[keep]
        self._local = self._local[keep]
        self._orig_idx = self._orig_idx[keep]
        if self._contrib is not None:
            self._contrib = self._contrib[keep]
            self._suffix = self._suffix[keep]
        return killed

    def survivors(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, final scores) of alive candidates; requires completion."""
        if not self.is_complete:
            raise RuntimeError("scan has unprocessed slices")
        return self.ids, self.accumulated


class ShardGroupScan:
    """Fused multi-query scan of one shard (the batched executor path).

    Holds every group member's candidates at once: the cheap per-row
    bookkeeping (ids, owning query, accumulated scores, bound tables)
    lives in dense concatenated arrays so pruning is one vectorized
    pass against each row's *own* query threshold, while rows stay in
    the shard's slabs — each member keeps only its alive index array,
    and each (shard, slice) stage takes just the alive rows' slice
    columns and applies exactly the broadcast kernel :class:`ShardScan`
    uses. Identical inputs, identical reduction, hence
    bitwise-identical partial scores. (An earlier variant scored one
    concatenated block against a materialized per-row query matrix;
    same flop count, but the query-matrix traffic and whole-block row
    compaction made it slower than the per-query loop it was meant to
    beat.)

    Args:
        parts: one gathered :class:`~repro.core.layout.CandidatePart`
            per member, all of the same shard; the dense arrays are
            their concatenation in member order.
        queries: the members' query vectors, ``(n_queries, dim)``
            float32 (or a sequence of them).
        slices: the plan's dimension slicing.
        metric: L2 or inner-product family.
        query_norms: per-query per-slice norms (IP only),
            ``(n_queries, m)``.
    """

    def __init__(
        self,
        parts: "list[CandidatePart]",
        queries: np.ndarray,
        slices: DimensionSlices,
        metric: Metric = Metric.L2,
        query_norms: np.ndarray | None = None,
    ) -> None:
        sizes = [part.ids.size for part in parts]
        self.ids = np.concatenate([part.ids for part in parts])
        self.query_of = np.repeat(np.arange(len(parts), dtype=np.intp), sizes)
        self.queries = np.asarray(queries, dtype=np.float32)
        self.slices = slices
        self.metric = metric
        self._slabs = [part.slabs for part in parts]
        #: per-member shard-local indices of its alive rows; pruning
        #: shrinks these, never a row block.
        self._alive = [part.local for part in parts]
        self._buffers = _StageBuffers(max(sizes), parts[0].slabs)
        self.accumulated = np.zeros(self.ids.size, dtype=np.float64)
        self.done: list[int] = []
        self._done_mask = np.zeros(slices.n_slices, dtype=bool)
        if metric is Metric.L2:
            self._suffix = None
        else:
            if query_norms is None or any(p.norms is None for p in parts):
                raise ValueError(
                    "inner-product pruning requires base_slice_norms "
                    "and query_norms"
                )
            norms = np.concatenate([part.norms for part in parts], axis=0)
            contrib = np.asarray(norms, dtype=np.float64) * (
                np.asarray(query_norms, dtype=np.float64)[self.query_of]
            )
            self._suffix = suffix_ip_bounds(contrib)

    @property
    def n_alive(self) -> int:
        return self.ids.size

    @property
    def is_complete(self) -> bool:
        return len(self.done) == self.slices.n_slices

    def process_slice(self, slice_id: int) -> int:
        """One dimension stage over the whole group.

        Walks the members (each owning one contiguous segment of the
        dense bookkeeping arrays) and applies the same broadcast
        partial-distance kernel :class:`ShardScan` uses.
        """
        return self._advance(slice_id, self._exact_block)

    def _advance(self, slice_id: int, score) -> int:
        """One stage: per member, take its alive rows' slice columns
        out of the slab and ``score(taken, f64, q, slice_id, cols,
        seg)`` — ``seg`` its segment of the dense arrays — onto the
        accumulator."""
        if self._done_mask[slice_id]:
            raise ValueError(f"slice {slice_id} already processed")
        n = self.ids.size
        if n:
            cols = slice(*self.slices.slice_range(slice_id))
            partial = np.empty(n, dtype=np.float64)
            pos = 0
            for q, alive in enumerate(self._alive):
                if alive.size == 0:
                    continue
                taken, f64 = self._buffers.stage(
                    self._slabs[q], slice_id, alive
                )
                seg = slice(pos, pos + alive.size)
                partial[seg] = score(taken, f64, q, slice_id, cols, seg)
                pos = seg.stop
            self.accumulated += partial
        self.done.append(slice_id)
        self._done_mask[slice_id] = True
        return int(n)

    def _exact_block(self, taken, f64, q, slice_id, cols, seg) -> np.ndarray:
        return _slice_scores(taken, self.queries[q, cols], self.metric, f64)

    def lower_bounds(self) -> np.ndarray:
        """Per-row lossless lower bound (same arithmetic as ShardScan)."""
        if self.metric is Metric.L2 or self.is_complete:
            return self.accumulated
        assert self._suffix is not None
        raw = self._suffix[:, len(self.done)]
        return self.accumulated - (raw * (1.0 + BOUND_REL_EPS) + BOUND_ABS_EPS)

    def prune(self, thresholds: np.ndarray) -> int:
        """Compact away rows beating their own query's threshold.

        Only index arrays and per-row tables move: each member's alive
        index array shrinks, and the next stage takes the survivors'
        slice columns straight from the slab.

        Args:
            thresholds: per-query thresholds, ``(n_queries,)``; ``inf``
                entries (heap not yet full) keep all their rows.

        Returns:
            Number of rows pruned by this call.
        """
        if self.ids.size == 0:
            return 0
        thr = np.asarray(thresholds, dtype=np.float64)[self.query_of]
        keep = self.lower_bounds() <= thr
        if keep.all():
            return 0
        killed = int(keep.size) - int(keep.sum())
        pos = 0
        for q, alive in enumerate(self._alive):
            seg = keep[pos : pos + alive.size]
            pos += alive.size
            if not seg.all():
                self._alive[q] = alive[seg]
        self._compact_dense(keep)
        return killed

    def _compact_dense(self, keep: np.ndarray) -> None:
        """Compact the dense per-row bookkeeping arrays to ``keep``."""
        self.ids = self.ids[keep]
        self.query_of = self.query_of[keep]
        self.accumulated = self.accumulated[keep]
        if self._suffix is not None:
            self._suffix = self._suffix[keep]

    def survivors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ids, final scores, owning query) of surviving rows."""
        if not self.is_complete:
            raise RuntimeError("scan has unprocessed slices")
        return self.ids, self.accumulated, self.query_of


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
        _attach_sq8(
            self, self.query, part.err, part.exact,
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

    def _compact(self, keep: np.ndarray) -> int:
        killed = super()._compact(keep)
        self._err = _kept_rows(self._err, keep)
        return killed

    def survivors(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, *exact* scores): re-rank survivors against fp32 slabs."""
        if not self.is_complete:
            raise RuntimeError("scan has unprocessed slices")
        self.reranked = int(self.ids.size)
        return self.ids, _exact_scores(
            self._exact, self._local, self.query, self.slices, self.metric,
            self._buffers, _rerank_block(self._exact, self.ids.size),
        )


class SQ8ShardGroupScan(ShardGroupScan):
    """Fused multi-query SQ8 scan (batched sibling of SQ8ShardScan).

    Phase one advances every group member's uint8 codes through each
    (shard, slice) stage with the same error-padded arithmetic as
    :class:`SQ8ShardScan`; phase two re-ranks each query's survivors
    against the shard's float32 slabs in canonical slice order, so the
    merged heaps stay bitwise identical to the fp32 serial oracle.

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
            [part.exact for part in parts],
            code_lo, code_scale, scan.get("query_norms"),
        )

    def process_slice(self, slice_id: int) -> int:
        """One error-padded SQ8 dimension stage over the whole group."""
        return self._advance(slice_id, self._padded_block)

    def _padded_block(self, taken, f64, q, slice_id, cols, seg) -> np.ndarray:
        return _sq8_padded_scores(
            self, taken, f64, q, slice_id, cols, self._err[seg, slice_id]
        )

    def lower_bounds(self) -> np.ndarray:
        return _deflated(super().lower_bounds())

    def _compact_dense(self, keep: np.ndarray) -> None:
        super()._compact_dense(keep)
        self._err = _kept_rows(self._err, keep)

    def survivors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ids, *exact* scores, owning query) via fp32 re-rank."""
        if not self.is_complete:
            raise RuntimeError("scan has unprocessed slices")
        n = self.ids.size
        self.reranked = int(n)
        exact = np.empty(n, dtype=np.float64)
        taken = _rerank_block(
            self._exact[0], max(alive.size for alive in self._alive)
        )
        pos = 0
        for q, alive in enumerate(self._alive):
            if alive.size:
                exact[pos : pos + alive.size] = _exact_scores(
                    self._exact[q], alive, self.queries[q],
                    self.slices, self.metric, self._buffers, taken,
                )
                pos += alive.size
        return self.ids, exact, self.query_of
