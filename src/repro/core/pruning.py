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
(:meth:`_Scorer.listed`), and only the survivors become alive indices.

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
move. The pad is derived once (:func:`_phase_one_pad`), each precision
is one scorer (:class:`_F32Scorer`, :class:`_SQ8Scorer`) whose dense
rows and probed lists share one padding expression (:class:`_Scorer`),
one group scan runs either scorer, list by list or member by member,
and the re-rank is one helper all two-phase scans share
(:func:`_exact_scores`).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.layout import CandidatePart, ShardSlabs
from repro.distance.metrics import Metric
from repro.distance.partial import (
    DimensionSlices,
    deflated_bound,
    padded_cap,
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
    the re-rank (:func:`_exact_scores`) stages float32 rows and their
    query rows there, half a buffer each, even when the scan streams
    uint8 codes. Owned by one scan, never module-global: several caller
    threads may search one kernel at once.
    """

    __slots__ = ("rows", "_taken", "_f64")

    def __init__(self, n_rows: int, slabs: ShardSlabs) -> None:
        # Two rows at least: the re-rank splits both buffers between
        # a block's rows and their query rows.
        self.rows = max(n_rows, 2)
        size = self.rows * slabs.max_width
        itemsize = max(slabs.base[0].itemsize, 4)
        self._taken = np.empty(size * itemsize, dtype=np.uint8)
        self._f64 = np.empty(size, dtype=np.float64)

    def taken(self, n: int, width: int, dtype, offset: int = 0) -> np.ndarray:
        view = self._taken.view(dtype)
        return view[offset : offset + n * width].reshape(n, width)

    def f64(self, n: int, width: int) -> np.ndarray:
        return self._f64[: n * width].reshape(n, width)

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
    """One slice's per-row score contribution (``L2`` or ``-IP``) against
    a query slice or one query row per row, widened into the scan's
    ``f64`` scratch (:func:`~repro.distance.partial.exact_partial`)."""
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
    scorer's: :class:`_F32Scorer`, :class:`_SQ8Scorer`.
    """
    widths = np.asarray(widths, dtype=np.float64)
    gamma = (widths + 2) * _F32_U / (1.0 - (widths + 2) * _F32_U)
    return gamma, widths * _F32_TINY


def _as_f32(rows: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``rows`` as float32 BLAS operands: float32 rows as they are, uint8
    codes (integers up to 255, exact in float32) cast once into
    ``scratch``, a float32 view of the scan's float64 scratch. Nothing is
    decoded."""
    if rows.dtype == np.float32:
        return rows
    np.copyto(scratch, rows)
    return scratch


class _Scorer:
    """Phase one of one precision: float32 BLAS scores of a scan's rows,
    padded down to bound the exact float64 ones — ``A - 2X + C`` (L2) or
    ``Y + C`` less a per-row term (inner-product family). A precision's
    constructor (:class:`_F32Scorer`, :class:`_SQ8Scorer`) hoists in
    float64 what does not depend on the row: per member the float32
    ``weights`` of ``X`` or ``Y``; for L2 the weights of the squared rows
    (``square``) and per slice ``keep = 1 - 3γ``; per (slice, member) the
    constant ``const``, the whole rounding pad taken off; and per
    (member, slice) the ``factor`` a row's ``pads_by`` table (norms or
    error norms) is multiplied by into the row's own term (:meth:`table`),
    which the scan compacts and settles beside its rows.

    :meth:`dense` bounds a block of dense rows, one ``sgemv`` per member
    segment; :meth:`listed` one probed list read in place, one ``sgemm``
    against every member probing it. Both end in :meth:`_padded`, element
    for element the same operands in the same order;
    :func:`_phase_one_pad`'s lemma bounds a dot product in any summation
    order, so a GEMM's order keeps the bound sound.

    A non-finite stage (float32 squares overflow near 1.8e19, where
    float32 data does not; or a ``-inf`` constant) becomes the bound that
    is true of anything: 0 for L2, ``-inf`` for the inner-product family.
    ``finite`` lists the slices where no member's stage can be non-finite
    (SQ8's, wherever no constant is ``-inf``): their results are not
    checked, and computing them raises no floating-point warning.
    """

    #: SQ8: the rows are uint8 codes, the L2 bound is padded by their
    #: error norms, bounds are deflated once more (:meth:`bound`), and
    #: the survivors count as re-ranked against float32.
    codes = False
    #: The per-row table of a part or list block the row term comes from.
    pads_by = "norms"

    def __init__(self, queries, slices: DimensionSlices, metric: Metric):
        self.l2 = metric is Metric.L2
        self.trivial = 0.0 if self.l2 else -np.inf
        self.factor = None
        bounds = np.asarray(slices.boundaries)
        self._starts = bounds[:-1]
        self._widths = np.diff(bounds)
        self._gamma, self._tiny = _phase_one_pad(self._widths)
        self.keep = 1.0 - 3.0 * self._gamma
        self._q64 = np.atleast_2d(queries).astype(np.float64)

    def _per_slice(self, values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(values, self._starts, axis=-1)

    def table(self, source, owner) -> "np.ndarray | None":
        """The rows' pad term per slice (None: there is none, fp32 L2):
        their ``pads_by`` table ``source`` times ``factor[owner]`` — the
        rows' owners, an int for one member's rows, or ``(members, 0)``
        for a list's slice-0 column against its members; SQ8 L2's is the
        error norms themselves, which :meth:`_padded` takes off the
        square root."""
        if self.factor is None:  # L2
            return source if self.codes else None
        return source * self.factor[owner]

    def bound(self, bounds: np.ndarray) -> np.ndarray:
        """What the scan prunes on: SQ8's error-padded bounds deflated once
        more by the standard float-safety epsilons, so float rounding can
        never flip a keep into a kill."""
        if not self.codes:
            return bounds
        return deflated_bound(bounds)

    def dense(self, taken, buffers, owner, term, slice_id: int, cols):
        """Bound of dense rows ``taken`` (the slab's dtype), row ``i``
        against member ``owner[i]``: ``owner`` ascends, so each member's
        rows are one segment, scored with one ``sgemv`` against its
        weights; an int ``owner`` is one member's rows. ``term`` is the
        rows' :meth:`table` column of slice ``slice_id``."""
        scratch = buffers.f32(*taken.shape)
        rows = _as_f32(taken, scratch)
        weights = self.weights[:, cols]
        if isinstance(owner, int):
            linear = np.dot(rows, weights[owner])
        else:
            linear = np.empty(rows.shape[0], dtype=np.float32)
            first = int(owner[0])
            cuts = np.searchsorted(
                owner, np.arange(first, owner[-1] + 2)
            ).tolist()
            for q, (lo, hi) in enumerate(zip(cuts, cuts[1:]), start=first):
                if lo < hi:
                    np.dot(rows[lo:hi], weights[q], out=linear[lo:hi])
        return self._padded(rows, scratch, linear, owner, term, slice_id, cols)

    def listed(self, slab, buffers, block, cols) -> np.ndarray:
        """Slice 0 of one probed list against every member probing it,
        ``(rows, members)``: the list's range of ``slab`` (float32 rows
        or SQ8 codes) read in place — no gather, no take — and scored
        with one ``sgemm`` against the members' stacked weights, less the
        pad term :meth:`table` would give each (row, member) pair."""
        members = block.members
        rows = slab[block.start : block.start + block.ids.size]
        scratch = buffers.f32(*rows.shape)
        floats = _as_f32(rows, scratch)
        linear = floats @ self.weights[members, cols].T
        source = getattr(block, self.pads_by)
        term = None if source is None else self.table(
            source[:, :1], (members, 0)
        )
        return self._padded(floats, scratch, linear, members, term, 0, cols)

    def _padded(self, rows, scratch, linear, member, term, slice_id, cols):
        """The padding expression both shapes share. ``linear`` is the
        rows' float32 product with their members' weights — ``(n,)``
        with ``member`` the rows' owners, or ``(n, m)`` with ``member``
        the list's members — and ``term`` broadcasts against it.

        L2: ``Â`` (the rows squared into the float32 scratch, one
        ``sgemv`` against ``square``) times ``keep``, plus the product,
        plus the member's constant — and for SQ8 ``max(0, sqrt(·) -
        err)²`` after (reverse triangle inequality). Inner-product
        family: the product plus the constant, less the row's term.
        """
        const = self.const[slice_id].take(member)
        if self.l2:
            squares = np.square(rows, out=scratch)
            approx = np.multiply(
                np.dot(squares, self.square[cols]),
                self.keep[slice_id],
                dtype=np.float64,
            )
            if linear.ndim == 1:
                approx += linear
            else:
                approx = approx[:, None] + linear
            approx += const
        else:
            approx = np.add(linear, const, dtype=np.float64)
            approx -= term
        if not (self.finite[slice_id] or np.isfinite(approx.sum())):
            approx[~np.isfinite(approx)] = self.trivial
        if self.codes and self.l2:
            np.sqrt(np.maximum(approx, 0.0, out=approx), out=approx)
            approx -= term
            np.square(np.maximum(approx, 0.0, out=approx), out=approx)
        return approx


class _F32Scorer(_Scorer):
    """Phase one of float32 rows: :class:`ShardGroupScan`'s scorer.

    L2: ``‖x - q‖² = A - 2X + C`` with ``A = ‖x‖²`` (``square`` is ones),
    weights ``-2q`` (exact in float32, or ``inf`` where ``q`` is near
    float32's limit, which makes the stage non-finite and trivial) and
    ``C = ‖q_s‖²``: ``Σ|x∘q| ≤ √(A·C)``, so :func:`_phase_one_pad`'s
    lemma takes ``3γ·(Â + C)`` and its absolute term off — the constant
    is ``C·(1 - 3γ)`` less the absolute term. Inner-product family: the
    score is ``-x·q``, weights ``-q``, and ``Σ|x∘q| ≤ ‖x_s‖·‖q_s‖`` on the
    per-row slice norms, so each row's table holds the IP cap
    ``2γ·‖x_s‖·‖q_s‖`` (``factor = 2γ·‖q_s‖``) and the constant is minus
    the absolute term. ``C = ‖q_s‖²`` and ``‖q_s‖`` come from the
    members' queries widened to float64, not from the float32
    ``query_norms``, which under- and overflow at magnitudes float32
    data reaches.
    """

    def __init__(self, queries, slices, metric) -> None:
        super().__init__(queries, slices, metric)
        q64 = self._q64
        squares = self._per_slice(q64 * q64)
        if self.l2:
            with np.errstate(over="ignore"):
                self.weights = (-2.0 * q64).astype(np.float32)
            self.square = np.ones(q64.shape[1], dtype=np.float32)
            const = squares * self.keep - self._tiny
        else:
            self.weights = np.negative(queries, dtype=np.float32)
            self.factor = 2.0 * self._gamma * np.sqrt(squares)
            const = np.broadcast_to(-self._tiny, squares.shape)
        self.const = np.ascontiguousarray(const.T)
        self.finite = [False] * self.const.shape[0]


class _SQ8Scorer(_Scorer):
    """Phase one of uint8 codes: the SQ8 scans' scorer.

    Writing ``c`` for a row's codes, ``s`` / ``lo`` for the slice's
    scale / offset and ``u = q - lo``:

    * L2: ``||decode(c) - q||² = A - 2X + C`` with ``A = Σ s²c²``
      (``square = s²``), ``X = Σ (s∘u)·c`` (weights ``-2 s∘u``) and
      ``C = Σ u²``; ``Σ|s∘u|·c ≤ √(A·C)``;
    * IP family: ``-decode(c)·q = Y - lo·q`` with ``Y = -Σ (s∘q)·c``
      (weights ``-(s∘q)``) and a constant; ``G = 255·Σ|s∘q|``
      (``c ≤ 255``).

    :func:`_phase_one_pad`'s lemma takes ``3γ·(Â + C)`` (L2) or ``2γ·G``
    off, and its absolute term. One float64 term is SQ8's own: the error
    table bounds the row's distance to ``decode(c)`` *as float64 computes
    it*, which lies up to ``2⁻⁵²·(|s·c| + |lo|)`` per dimension from the
    real-number decode expanded above — ``2⁻⁵⁰·Σ lo²`` for L2, and for
    the IP family ``2(w+4)·2⁻⁵³·Σ|lo∘q|``, which also spans the ``w``
    roundings of ``lo·q`` here and in the exact score the bound is held
    against (an offset far larger than the span leaves those to
    cancellation). Where the stage's term magnitudes could exceed
    ``_F32_SAFE`` the (member, slice) constant is ``-inf``, so the stage
    returns the trivial bound; elsewhere every intermediate is finite by
    construction.

    All of it is subtracted first; the stage then pads by the packed
    error norm exactly as the decode form did: for L2 ``max(0,
    sqrt(approx) - err)**2`` (reverse triangle inequality), for the
    inner-product family ``approx - ||q_s|| * err`` (Cauchy-Schwarz:
    ``factor`` is ``||q_s||``). ``err`` was rounded *up* at pack time.
    """

    codes = True
    pads_by = "err"

    def __init__(
        self, queries, slices, metric, query_norms, code_lo, code_scale
    ) -> None:
        super().__init__(queries, slices, metric)
        if not self.l2 and query_norms is None:
            raise ValueError("inner-product SQ8 pruning requires query_norms")
        lo = np.asarray(code_lo, dtype=np.float64)
        scale = np.asarray(code_scale, dtype=np.float64)
        q64, per_slice = self._q64, self._per_slice
        gamma, tiny, widths = self._gamma, self._tiny, self._widths
        if self.l2:
            u = q64 - lo
            square = scale * scale
            linear = -2.0 * scale * u
            c = per_slice(u * u)
            const = c * self.keep - 2.0**-50 * per_slice(lo * lo) - tiny
            safe = 65025.0 * per_slice(square) + c < _F32_SAFE
        else:
            self.factor = np.atleast_2d(
                np.asarray(query_norms, dtype=np.float64)
            )
            linear = -(scale * q64)
            lo_q = lo * q64
            reach = 255.0 * per_slice(np.abs(linear))
            const = -per_slice(lo_q) - (
                2.0 * gamma * reach
                + 2.0 * (widths + 4) * _F64_U * per_slice(np.abs(lo_q))
                + tiny
            )
            safe = reach < _F32_SAFE
        self.const = np.ascontiguousarray(np.where(safe, const, -np.inf).T)
        self.finite = safe.all(axis=0).tolist()
        # Unsafe slices may overflow the cast; their stages are trivial.
        with np.errstate(over="ignore"):
            self.weights = linear.astype(np.float32)
            if self.l2:
                self.square = square.astype(np.float32)


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

    The rows go through in blocks of half what the scan's own
    ``buffers`` hold, so a block's rows and their owners' query rows
    sit side by side in both. Per block and slice, in canonical slice
    order: one take of the rows and one of each row's owner query slice
    into the taken buffer, then :class:`ShardScan`'s own slice score
    (:func:`_slice_scores`) against those query rows, widened into the
    float64 scratch. A row's score is thus the exact scan's, term for
    term and in its order.
    """
    step = buffers.rows // 2
    total = np.zeros(local.size, dtype=np.float64)
    for start in range(0, local.size, step):
        block = slice(start, start + step)
        rows, owners, acc = local[block], owner[block], total[block]
        n = rows.size
        for slice_id, queries in enumerate(query_slabs):
            width = queries.shape[1]
            taken = buffers.taken(n, width, slabs.base[slice_id].dtype)
            q = np.take(
                queries, owners, axis=0, mode="clip",
                out=buffers.taken(n, width, np.float32, offset=n * width),
            )
            acc += _slice_scores(
                slabs.take(slice_id, rows, out=taken), q, metric,
                buffers.f64(2 * n, width),
            )
    return total


def _kept_rows(table: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``table``'s rows at the ascending indices ``keep``: a take, an
    order of magnitude cheaper than a boolean-mask row copy."""
    return table.take(keep, axis=0)


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
        bound = approx - padded_cap(raw)
    keep = scan._scorer.bound(bound) <= scan._thresholds[members]
    if block.live is not None:
        keep &= block.live[:, None]
    for cols, kept in block.drops:
        keep[:, cols] &= kept[:, None]
    return np.flatnonzero(keep)


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
        return self.accumulated - padded_cap(raw)

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
    value never exceeds the exact float64 partial (the scan's scorer,
    :class:`_F32Scorer` over float32 rows or :class:`_SQ8Scorer` over
    uint8 codes): pruning stays lossless, and a
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
    (:meth:`_Scorer.listed`), and :meth:`prune` turns only the survivors
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
        lists: the members' base candidates as
            :class:`~repro.core.layout._ListRows` blocks, whose member
            indices count from 0 in ``parts`` order.
        codes: SQ8 only — the layout's ``(code_lo, code_scale)``: the
            parts (and lists) stream uint8 codes, bounded by the SQ8
            scorer, and re-rank against their ``exact`` float32 slabs.
    """

    def __init__(
        self,
        parts: "list[CandidatePart]",
        queries: np.ndarray,
        slices: DimensionSlices,
        metric: Metric = Metric.L2,
        query_norms: np.ndarray | None = None,
        lists: "list | None" = None,
        codes: "tuple | None" = None,
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
        if codes is None:
            self._scorer = _F32Scorer(self.queries, slices, metric)
        else:
            self._scorer = _SQ8Scorer(
                self.queries, slices, metric, query_norms, *codes
            )
        pads = [getattr(part, self._scorer.pads_by) for part in parts]
        #: The scorer's per-row pad term (:meth:`_Scorer.table`).
        self._table = self._scorer.table(
            None if pads[0] is None else np.concatenate(pads), self.query_of
        )

    @property
    def n_alive(self) -> int:
        return self.ids.size + self._pending

    @property
    def is_complete(self) -> bool:
        return len(self.done) == self.slices.n_slices

    def process_slice(self, slice_id: int) -> int:
        """One dimension stage over the whole group: the alive rows'
        phase-one bounds (:meth:`_Scorer.dense`), one buffer-sized block
        of dense rows at a time — and, opened list-major, slice 0 of
        every probed list (:meth:`_Scorer.listed`)."""
        if self._lists is not None and (self.done or slice_id != 0):
            raise RuntimeError(
                "a list-major scan starts at slice 0 and prunes after it"
            )
        if self._done_mask[slice_id]:
            raise ValueError(f"slice {slice_id} already processed")
        n = self.n_alive
        if n:
            with np.errstate(over="ignore", invalid="ignore"):
                self._bound_blocks(slice_id)
        self.done.append(slice_id)
        self._done_mask[slice_id] = True
        return int(n)

    def _bound_blocks(self, slice_id: int) -> None:
        cols = slice(*self.slices.slice_range(slice_id))
        step, table = self._buffers.rows, self._table
        for start in range(0, self.ids.size, step):
            block = slice(start, start + step)
            taken, _ = self._buffers.stage(
                self._slabs, slice_id, self._local[block]
            )
            self.accumulated[block] += self._scorer.dense(
                taken, self._buffers, self.query_of[block],
                None if table is None else table[block, slice_id],
                slice_id, cols,
            )
        if self._lists is not None:
            slab = self._slabs.base[0]
            self._lists = [
                (block, self._scorer.listed(slab, self._buffers, block, cols))
                for block in self._lists
            ]

    def lower_bounds(self) -> np.ndarray:
        """Per-row lossless lower bound (same arithmetic as ShardScan),
        as the scorer prunes on it (:meth:`_Scorer.bound`)."""
        bounds = self.accumulated
        if self.metric is not Metric.L2 and not self.is_complete:
            raw = self._suffix[:, len(self.done)]
            bounds = bounds - padded_cap(raw)
        return self._scorer.bound(bounds)

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

        def per_list(of) -> list:
            return [of(b, row) for b, row in zip(lists, rows)]

        def merged(head, tails) -> np.ndarray:
            return np.concatenate([head, *tails]).take(order, axis=0)

        @functools.cache  # fp32 IP reads the norms twice
        def table(name: str) -> np.ndarray:
            return np.concatenate(
                per_list(lambda b, row: getattr(b, name).take(row, axis=0))
            )

        self.accumulated = np.concatenate(accumulated).take(order)
        del accumulated
        owners = owner[dense:]
        if self._suffix is not None:
            self._suffix = merged(self._suffix, [
                suffix_ip_bounds(table("norms") * self._qnorms[owners])
            ])
        if self._table is not None:
            self._table = merged(self._table, [
                self._scorer.table(table(self._scorer.pads_by), owners)
            ])
        self.ids = merged(self.ids, per_list(lambda b, row: b.ids.take(row)))
        self._local = merged(
            self._local, per_list(lambda b, row: row + b.start)
        )
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
        if self._table is not None:
            self._table = _kept_rows(self._table, keep)

    def survivors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ids, exact scores, owning query) of the surviving rows.

        Phase two: every member's survivors re-ranked in one blocked
        pass (:func:`_exact_scores`), then held against the thresholds
        the last :meth:`prune` saw — the padded bound may have kept a
        few rows the exact scan drops there — so what is returned is row
        for row what the per-query exact scan returns. An SQ8 scan
        counts the rows it re-ranked against float32 (``reranked``).
        """
        if not self.is_complete or self._lists is not None:
            raise RuntimeError("scan has unprocessed slices")
        ids, owner = self.ids, self.query_of
        if self._scorer.codes:
            self.reranked = int(ids.size)
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
    reconstruction-error norms (:class:`_SQ8Scorer`, bound as one member
    of a group), so every accumulated value lower-bounds the exact score
    and pruning stays lossless: any candidate the fp32 scan would keep,
    this scan keeps too. Phase two (:meth:`survivors`) re-ranks the few
    remaining candidates against their float32 slabs
    (:func:`_exact_scores`), so final scores (and therefore heap
    contents) are bitwise identical to the fp32 serial oracle.
    :meth:`lower_bounds` deflates once more by the standard float-safety
    epsilons, so float rounding can never flip a keep into a kill.

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
        self._scorer = _SQ8Scorer(
            self.query, self.slices, self.metric, scan.get("query_norms"),
            code_lo, code_scale,
        )
        self._table = self._scorer.table(part.err, 0)

    def process_slice(self, slice_id: int) -> int:
        """Accumulate one slice's error-padded SQ8 partial scores (a
        stage float32 could overflow runs with its warnings off)."""
        if self._scorer.finite[slice_id]:
            return self._advance(slice_id, self._bounded_slice)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._advance(slice_id, self._bounded_slice)

    def _bounded_slice(self, taken, f64, slice_id: int, cols: slice):
        return self._scorer.dense(
            taken, self._buffers, 0, self._table[:, slice_id], slice_id, cols
        )

    def lower_bounds(self) -> np.ndarray:
        return self._scorer.bound(super().lower_bounds())

    def _compact(self, keep: np.ndarray) -> None:
        super()._compact(keep)
        self._table = _kept_rows(self._table, keep)

    def survivors(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, *exact* scores): re-rank survivors against fp32 slabs,
        counting them (``reranked``, the harmony_rerank_candidates_total
        metric)."""
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
    """Fused multi-query SQ8 scan: :class:`ShardGroupScan` with the SQ8
    scorer bound (:class:`_SQ8Scorer`).

    Everything else is the group scan's own — its stage loop, its
    list-major first slice, its compaction and its re-rank of every
    member's survivors against the shard's float32 slabs — so the merged
    heaps stay bitwise identical to the fp32 serial oracle.
    ``process_slice`` and ``survivors`` are aliases of the group scan's
    functions, held in this class's own namespace: the perf ledger's
    span recorder times each class's methods by name, and a call
    delegated up to the group scan's would be timed twice.

    Args:
        parts: one ``gather_sq8`` record per member (with ``lists``, the
            members' delta-segment codes).
        code_lo / code_scale: per-dimension dequantization params.
        scan: the remaining arguments of :class:`ShardGroupScan`.
    """

    def __init__(self, parts: list, code_lo, code_scale, **scan) -> None:
        super().__init__(parts, codes=(code_lo, code_scale), **scan)

    process_slice = ShardGroupScan.process_slice
    survivors = ShardGroupScan.survivors
