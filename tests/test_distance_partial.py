"""Unit tests for repro.distance.partial (dimension slices, monotonicity)."""

import numpy as np
import pytest

from repro.core.pruning import ShardScan
from repro.distance.metrics import Metric, inner_product, squared_l2
from repro.distance.partial import (
    DimensionSlices,
    exact_partial,
    padded_cap,
    partial_inner_product,
    partial_squared_l2,
    slice_norms,
    suffix_ip_bounds,
)


class TestDimensionSlices:
    def test_even_split(self):
        slices = DimensionSlices.even(128, 4)
        assert slices.n_slices == 4
        assert slices.dim == 128
        assert slices.widths() == (32, 32, 32, 32)

    def test_uneven_split_spreads_remainder(self):
        slices = DimensionSlices.even(10, 3)
        assert slices.widths() == (4, 3, 3)
        assert sum(slices.widths()) == 10

    def test_single_slice(self):
        slices = DimensionSlices.even(7, 1)
        assert slices.slice_range(0) == (0, 7)

    def test_ranges_are_contiguous_cover(self):
        slices = DimensionSlices.even(100, 7)
        prev_stop = 0
        for j in range(slices.n_slices):
            start, stop = slices.slice_range(j)
            assert start == prev_stop
            prev_stop = stop
        assert prev_stop == 100

    def test_take_restricts_last_axis(self):
        slices = DimensionSlices.even(8, 2)
        x = np.arange(16).reshape(2, 8)
        np.testing.assert_array_equal(slices.take(x, 1), x[:, 4:])

    def test_more_slices_than_dims_raises(self):
        with pytest.raises(ValueError, match="cannot split"):
            DimensionSlices.even(3, 4)

    def test_zero_slices_raises(self):
        with pytest.raises(ValueError, match="must be positive"):
            DimensionSlices.even(8, 0)

    def test_invalid_boundaries_raise(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DimensionSlices((0, 5, 5, 10))
        with pytest.raises(ValueError, match="first boundary"):
            DimensionSlices((1, 5))
        with pytest.raises(ValueError, match="at least one slice"):
            DimensionSlices((0,))


class TestPartialSquaredL2:
    def test_partials_sum_to_full(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((30, 24))
        query = rng.standard_normal(24)
        slices = DimensionSlices.even(24, 3)
        total = sum(
            partial_squared_l2(slices.take(base, j), slices.take(query, j))
            for j in range(3)
        )
        np.testing.assert_allclose(total, squared_l2(base, query), rtol=1e-9)

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((50, 8))
        out = partial_squared_l2(base, rng.standard_normal(8))
        assert np.all(out >= 0.0)

    def test_running_sum_monotone(self):
        """The property early-stop pruning relies on (paper Section 3.1)."""
        rng = np.random.default_rng(2)
        base = rng.standard_normal((20, 32))
        query = rng.standard_normal(32)
        slices = DimensionSlices.even(32, 4)
        acc = np.zeros(20)
        for j in range(4):
            prev = acc.copy()
            acc = acc + partial_squared_l2(
                slices.take(base, j), slices.take(query, j)
            )
            assert np.all(acc >= prev)


class TestPartialInnerProduct:
    def test_partials_sum_to_full(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((25, 20))
        query = rng.standard_normal(20)
        slices = DimensionSlices.even(20, 5)
        total = sum(
            partial_inner_product(slices.take(base, j), slices.take(query, j))
            for j in range(5)
        )
        np.testing.assert_allclose(total, inner_product(base, query), rtol=1e-9)


class TestSliceNorms:
    def test_shape(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((10, 12))
        slices = DimensionSlices.even(12, 3)
        norms = slice_norms(base, slices)
        assert norms.shape == (10, 3)

    def test_values(self):
        base = np.array([[3.0, 4.0, 1.0, 0.0]])
        slices = DimensionSlices.even(4, 2)
        norms = slice_norms(base, slices)
        np.testing.assert_allclose(norms, [[5.0, 1.0]])

    def test_pythagoras(self):
        """Slice norms recombine into the full norm."""
        rng = np.random.default_rng(5)
        base = rng.standard_normal((15, 16))
        slices = DimensionSlices.even(16, 4)
        norms = slice_norms(base, slices)
        recombined = np.sqrt((norms**2).sum(axis=1))
        np.testing.assert_allclose(
            recombined, np.linalg.norm(base, axis=1), rtol=1e-9
        )


class TestRemainingIpBound:
    """The cap on what unseen slices can still add to a dot product, as
    the scans prune on it: a :func:`suffix_ip_bounds` column through
    :func:`padded_cap` in canonical slice order, and
    ``ShardScan.lower_bounds`` in any other."""

    def test_bound_dominates_remaining_dot(self):
        """Cauchy-Schwarz: the bound must cap the true remaining dot."""
        rng = np.random.default_rng(6)
        base = rng.standard_normal((40, 24))
        query = rng.standard_normal(24)
        slices = DimensionSlices.even(24, 4)
        base_norms = slice_norms(base, slices)
        query_norms = np.array(
            [np.linalg.norm(slices.take(query, j)) for j in range(4)]
        )
        suffix = suffix_ip_bounds(base_norms * query_norms)
        for done in range(5):
            true_remaining = sum(
                (
                    partial_inner_product(
                        slices.take(base, j), slices.take(query, j)
                    )
                    for j in range(done, 4)
                ),
                np.zeros(40),
            )
            assert np.all(np.abs(true_remaining) <= padded_cap(suffix[:, done]))
        # Out of canonical order the scan sums the remaining columns.
        scan = ShardScan(
            base=base, candidate_ids=np.arange(40), query=query,
            slices=slices, metric=Metric.INNER_PRODUCT,
            base_slice_norms=base_norms,
        )
        scan.process_slice(0)
        scan.process_slice(2)
        true_remaining = sum(
            partial_inner_product(
                slices.take(base, j), slices.take(scan.query, j)
            )
            for j in (1, 3)
        )
        assert np.all(
            scan.lower_bounds() <= scan.accumulated - np.abs(true_remaining)
        )

    def test_all_done_gives_zero(self):
        norms = np.ones((5, 3))
        np.testing.assert_array_equal(suffix_ip_bounds(norms)[:, 3], 0.0)
        scan = ShardScan(
            rows=np.ones((5, 3), dtype=np.float32),
            candidate_ids=np.arange(5), query=np.ones(3),
            slices=DimensionSlices.even(3, 3),
            metric=Metric.INNER_PRODUCT, base_slice_norms=norms,
        )
        for j in (2, 0, 1):
            scan.process_slice(j)
        # A complete scan's bound is its score: no cap, no pad.
        np.testing.assert_array_equal(scan.lower_bounds(), scan.accumulated)

    def test_none_done_uses_all_slices(self):
        norms = np.ones((2, 3))
        out = padded_cap(suffix_ip_bounds(norms)[:, 0])
        # The cap carries a tiny conservative inflation (padded_cap) so
        # it can never round below the true dot.
        np.testing.assert_allclose(out, 3.0, rtol=1e-6)
        assert np.all(out >= 3.0)
        scan = ShardScan(
            rows=np.ones((2, 3), dtype=np.float32),
            candidate_ids=np.arange(2), query=np.ones(3),
            slices=DimensionSlices.even(3, 3),
            metric=Metric.INNER_PRODUCT, base_slice_norms=norms,
            query_norms=np.ones(3),
        )
        np.testing.assert_array_equal(scan.lower_bounds(), -out)


# Test-local copies of the six forms the exact reduction replaced, as
# they were written out before it existed: the scan's two partials (with
# and without scratch), the re-rank's L2 and IP blocks, the prewarm
# kernel and the SQ8 layout's error norm (before its square root).


def _form_partial_l2(base, query, out=None):
    query = np.asarray(query, dtype=np.float64)
    if out is None:
        diff = np.asarray(base, dtype=np.float64) - query
    else:
        np.copyto(out, base)
        diff = np.subtract(out, query, out=out)
    return np.einsum("ij,ij->i", diff, diff)


def _form_partial_ip(base, query, out=None):
    if out is None:
        base = np.asarray(base, dtype=np.float64)
    else:
        np.copyto(out, base)
        base = out
    query = np.asarray(query, dtype=np.float64)
    return np.einsum("ij,ij->i", base, np.broadcast_to(query, base.shape))


def _form_rerank_l2(rows, query_rows):
    x = np.empty(rows.shape)
    np.copyto(x, rows)
    np.subtract(x, query_rows, out=x)
    return np.einsum("ij,ij->i", x, x)


def _form_rerank_ip(rows, query_rows):
    x, q64 = np.empty(rows.shape), np.empty(rows.shape)
    np.copyto(x, rows)
    np.copyto(q64, query_rows)
    return np.einsum("ij,ij->i", x, q64)


def _form_prewarm(rows, query):
    diff = np.asarray(rows, dtype=np.float64) - np.asarray(
        query, dtype=np.float64
    )
    return np.einsum("ij,ij->i", diff, diff)


def _form_sq8_error(rows, decoded):
    seg = rows.astype(np.float64) - decoded.astype(np.float64)
    return np.einsum("ij,ij->i", seg, seg)


def _forms(rows, query, l2):
    """Every form above that scores this metric and query shape."""
    if query.ndim == 1 and l2:
        scratch = np.empty(rows.shape)
        return [
            _form_partial_l2(rows, query),
            _form_partial_l2(rows, query, scratch),
            _form_prewarm(rows, query),
        ]
    if query.ndim == 1:
        scratch = np.empty(rows.shape)
        return [
            _form_partial_ip(rows, query),
            _form_partial_ip(rows, query, scratch),
        ]
    if l2:
        return [_form_rerank_l2(rows, query), _form_sq8_error(rows, query)]
    return [_form_rerank_ip(rows, query)]


class TestOneExactReduction:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("l2", [True, False], ids=["l2", "ip"])
    @pytest.mark.parametrize("query_rows", [False, True], ids=["w", "nw"])
    def test_bits_of_every_form(self, dtype, l2, query_rows):
        """Every caller (the scan's slices, the two-phase re-rank,
        prewarm, the SQ8 index and its layout's error table) gets exactly
        the bits it computed on its own, at every width up to 1 024,
        with and without scan scratch; a query tiled into rows scores as
        the query itself; and a re-rank's ``acc += -ip`` is its
        ``acc -= ip``."""
        rng = np.random.default_rng(46)
        n = 5
        for width in range(1, 1025):
            rows = (rng.standard_normal((n, width)) * 1e3).astype(dtype)
            shape = (n, width) if query_rows else (width,)
            query = rng.standard_normal(shape).astype(dtype)
            scratch = np.empty((2 * n, width))
            got = exact_partial(rows, query, l2)
            for expected in _forms(rows, query, l2):
                np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(
                exact_partial(rows, query, l2, scratch), got
            )
            # The scratch holds what was reduced: the difference x - q
            # (the order a sum of squares cannot tell), or the rows.
            rows64, q64 = rows.astype(np.float64), query.astype(np.float64)
            np.testing.assert_array_equal(
                scratch[:n], rows64 - q64 if l2 else rows64
            )
            if not query_rows:
                # The re-rank's materialized query rows score as the
                # scan's broadcast query does.
                tiled = np.repeat(query[None, :], n, axis=0)
                np.testing.assert_array_equal(
                    exact_partial(rows, tiled, l2, scratch), got
                )
            if not l2:
                acc = rng.standard_normal(n)
                np.testing.assert_array_equal(acc + -got, acc - got)
