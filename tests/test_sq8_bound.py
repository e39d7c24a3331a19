"""Phase one is a *bound*: never above the exact score, and tight.

Phase one scores uint8 codes (SQ8) or float32 rows (the fused fp32
group scan) in float32 with BLAS and pads the result down by a proved
rounding term (``repro.core.pruning._phase_one_pad``,
``_sq8_padded_scores``, ``_f32_padded_scores``). The property here is
the whole contract of that pad, for both precisions: for every row and
every slice the contribution is at most the exact float64 partial score
of the float32 row, every cumulative ``lower_bounds()`` is at most the
exact final score, nothing is ever NaN, and the re-rank returns the
exact bits. It must hold for whatever summation order the BLAS library
picks, which is why CI runs this file under more than one thread count.

The float64 decode form the SQ8 scorer used to run — widen the codes,
``* scale + lo``, subtract the query, ``einsum`` — lives on here as the
reference the SQ8 bound's tightness is measured against; the fp32
bound's is measured against the exact per-query scan.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.layout import (
    CandidatePart,
    ShardSlabs,
    sq8_encode,
    sq8_slice_errors,
    sq8_train_params,
)
from repro.core.pruning import ShardGroupScan, ShardScan, SQ8ShardScan
from repro.data.synthetic import gaussian_blobs
from repro.distance.metrics import Metric
from repro.distance.partial import (
    DimensionSlices,
    query_slice_norms,
    slice_norms,
)

METRICS = [Metric.L2, Metric.INNER_PRODUCT, Metric.COSINE]


def exact_slice_scores(rows, query, cols, metric):
    """The fp32 scan's arithmetic: widen, subtract / broadcast, einsum."""
    rows64 = np.array(rows[:, cols], dtype=np.float64)
    q64 = np.array(query[cols], dtype=np.float64)
    if metric is Metric.L2:
        diff = rows64 - q64
        return np.einsum("ij,ij->i", diff, diff)
    return -np.einsum("ij,ij->i", rows64, np.broadcast_to(q64, rows64.shape))


def decode_bound(codes, lo, scale, q_slice, err, q_norm, metric):
    """The float64 decode form of one slice's padded score."""
    decoded = codes.astype(np.float64) * scale + lo
    q64 = q_slice.astype(np.float64)
    if metric is Metric.L2:
        diff = decoded - q64
        approx = np.einsum("ij,ij->i", diff, diff)
        return np.square(np.maximum(np.sqrt(approx) - err, 0.0))
    approx = -np.einsum(
        "ij,ij->i", decoded, np.broadcast_to(q64, decoded.shape)
    )
    return approx - q_norm * err


class DecodeBoundScan(SQ8ShardScan):
    """The same scan with the decode form in the scorer's place."""

    def __init__(self, part, code_lo, code_scale, **scan):
        super().__init__(part, code_lo, code_scale, **scan)
        self._lo, self._scale = code_lo, code_scale

    def _padded_slice(self, taken, f64, slice_id, cols):
        l2 = self.metric is Metric.L2
        return decode_bound(
            taken, self._lo[cols], self._scale[cols], self.query[cols],
            self._err[:, slice_id].astype(np.float64),
            None if l2 else self._qnorms64[0, slice_id], self.metric,
        )


def sq8_inputs(base, extra, query, slices, metric):
    """Everything a scan over ``base + extra`` needs, with the codes of
    ``extra`` encoded against params trained on ``base`` alone (a delta
    segment: out-of-range values clip)."""
    rows = np.vstack([base, extra]) if len(extra) else base
    lo, scale = sq8_train_params(base)
    codes = sq8_encode(rows, lo, scale)
    n = rows.shape[0]
    part = CandidatePart(
        np.arange(n, dtype=np.int64),
        np.arange(n, dtype=np.intp),
        ShardSlabs.of_rows(codes, slices),
        None if metric is Metric.L2 else slice_norms(rows, slices),
        sq8_slice_errors(rows, codes, lo, scale, slices),
        ShardSlabs.of_rows(rows, slices),
    )
    scan_args = {
        "query": query,
        "slices": slices,
        "metric": metric,
        # Norms of the widened query: float32 norms under- and overflow
        # at the magnitudes drawn below, which is the caller's cap
        # going wrong, not the pad under test.
        "query_norms": query_slice_norms(query.astype(np.float64), slices),
    }
    return rows, codes, part, lo, scale, scan_args


@st.composite
def adversarial_case(draw):
    widths = draw(
        st.lists(
            st.sampled_from([1, 2, 3, 5, 8, 17, 32, 100, 257, 1024]),
            min_size=1, max_size=4,
        )
    )
    return {
        "widths": widths,
        "metric": draw(st.sampled_from(METRICS)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        # 1e-30 .. 1e30, and two magnitudes inside float32's denormals.
        "magnitude": 10.0 ** draw(
            st.one_of(st.integers(-30, 30), st.sampled_from([-39, -42]))
        ),
        # Offset in units of the magnitude: cancellation between the
        # expanded square's terms grows with it.
        "offset": draw(st.sampled_from([0.0, 1.0, -1.0, 1e3, -1e6])),
        "constant_share": draw(st.sampled_from([0.0, 0.3, 1.0])),
        "query_kind": draw(
            st.sampled_from(["random", "lo", "row", "far", "tiny"])
        ),
    }


def build_case(case):
    rng = np.random.default_rng(case["seed"])
    dim = sum(case["widths"])
    mag = case["magnitude"]
    centre = case["offset"] * mag

    def draw_rows(n, spread=1.0):
        return (centre + spread * mag * rng.standard_normal((n, dim))).astype(
            np.float32
        )

    base = draw_rows(10)
    constant = rng.random(dim) < case["constant_share"]
    base[:, constant] = base[0, constant]
    # Rows of all-0 and all-255 codes.
    base = np.vstack([base, base.min(axis=0), base.max(axis=0)])
    span = base.max(axis=0) - base.min(axis=0)
    # Delta rows the frozen range does not cover: codes clip.
    extra = np.vstack(
        [draw_rows(3, 4.0), base.max(axis=0) + span, base.min(axis=0) - span]
    ).astype(np.float32)
    extra[:2, constant] = base[0, constant]
    kind = case["query_kind"]
    if kind == "lo":
        query = base.min(axis=0)
    elif kind == "row":
        query = np.vstack([base, extra])[rng.integers(len(base) + len(extra))]
    elif kind == "tiny":
        # Thirty decades under the data: float32 weights go denormal.
        query = (1e-30 * mag * rng.standard_normal(dim)).astype(np.float32)
    else:
        query = draw_rows(1, 100.0 if kind == "far" else 1.0)[0]
    assert np.isfinite(base).all() and np.isfinite(extra).all()
    bounds = (0, *np.cumsum(case["widths"]).tolist())
    return base, extra, query.astype(np.float32), DimensionSlices(bounds)


class TestPhaseOneNeverExceedsExact:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=adversarial_case())
    def test_bound_holds(self, case):
        metric = case["metric"]
        base, extra, query, slices = build_case(case)
        rows, _, part, lo, scale, scan_args = sq8_inputs(
            base, extra, query, slices, metric
        )
        exact = [
            exact_slice_scores(
                rows, query, slice(*slices.slice_range(j)), metric
            )
            for j in range(slices.n_slices)
        ]
        total = np.zeros(rows.shape[0], dtype=np.float64)
        for part_scores in exact:
            total += part_scores

        # One slice at a time, on a fresh scan: the accumulator after
        # its first stage *is* that slice's contribution.
        for j in range(slices.n_slices):
            scan = SQ8ShardScan(part, lo, scale, **scan_args)
            scan.process_slice(j)
            assert not np.isnan(scan.accumulated).any()
            assert np.all(scan.accumulated <= exact[j]), (j, case)

        scan = SQ8ShardScan(part, lo, scale, **scan_args)
        for j in range(slices.n_slices):
            scan.process_slice(j)
            bounds = scan.lower_bounds()
            assert not np.isnan(bounds).any()
            assert np.all(bounds <= total), (j, case)
        _, scores = scan.survivors()
        assert scores.tobytes() == total.tobytes()

    def test_float32_overflow_yields_the_trivial_bound(self):
        """Squares of 1e20-sized steps pass float32's range although the
        data does not: the stage claims nothing rather than NaN."""
        rng = np.random.default_rng(0)
        base = (1e22 * rng.standard_normal((8, 6))).astype(np.float32)
        query = (1e22 * rng.standard_normal(6)).astype(np.float32)
        slices = DimensionSlices.even(6, 2)
        for metric, trivial in [
            (Metric.L2, 0.0), (Metric.INNER_PRODUCT, -np.inf),
        ]:
            _, _, part, lo, scale, scan_args = sq8_inputs(
                base, [], query, slices, metric
            )
            scan = SQ8ShardScan(part, lo, scale, **scan_args)
            scan.process_slice(0)
            assert np.all(scan.accumulated == trivial)
            scan.process_slice(1)
            assert not np.isnan(scan.lower_bounds()).any()

    def test_group_scan_matches_single_scans(self):
        """The fused scan hoists per-member weights; each member's
        accumulator must be the single scan's, stage by stage."""
        from repro.core.pruning import SQ8ShardGroupScan

        data = gaussian_blobs(130, 24, n_blobs=4, cluster_std=0.5, seed=2)
        base, queries = data[:120], data[120:123]
        slices = DimensionSlices.even(24, 3)
        for metric in (Metric.L2, Metric.INNER_PRODUCT):
            singles, parts, norms = [], [], []
            for q in queries:
                _, _, part, lo, scale, scan_args = sq8_inputs(
                    base, [], q, slices, metric
                )
                singles.append(SQ8ShardScan(part, lo, scale, **scan_args))
                parts.append(part)
                norms.append(scan_args["query_norms"])
            group = SQ8ShardGroupScan(
                parts, lo, scale, queries=queries, slices=slices,
                metric=metric, query_norms=np.stack(norms),
            )
            for j in range(slices.n_slices):
                group.process_slice(j)
                for scan in singles:
                    scan.process_slice(j)
                np.testing.assert_array_equal(
                    group.accumulated,
                    np.concatenate([scan.accumulated for scan in singles]),
                )
            np.testing.assert_array_equal(
                group.survivors()[1],
                np.concatenate([scan.survivors()[1] for scan in singles]),
            )


class TestPhaseOneIsTight:
    @pytest.mark.parametrize("metric", [Metric.L2, Metric.INNER_PRODUCT])
    def test_survivors_within_two_percent_of_decode_bound(self, metric):
        """5 000 x 128 clustered rows, four slices, pruned against each
        query's true 10th-best score: the rounding pad hands the
        re-rank at most 2 % more rows than the float64 decode bound."""
        data = gaussian_blobs(5032, 128, n_blobs=16, cluster_std=0.5, seed=3)
        base, queries = data[:5000], data[5000:]
        slices = DimensionSlices.even(128, 4)
        survivors = {SQ8ShardScan: 0, DecodeBoundScan: 0}
        scored = {SQ8ShardScan: 0, DecodeBoundScan: 0}
        for query in queries:
            rows, _, part, lo, scale, scan_args = sq8_inputs(
                base, [], query, slices, metric
            )
            total = sum(
                exact_slice_scores(
                    rows, query, slice(*slices.slice_range(j)), metric
                )
                for j in range(slices.n_slices)
            )
            threshold = float(np.partition(total, 9)[9])
            for cls in survivors:
                scan = cls(part, lo, scale, **scan_args)
                for j in range(slices.n_slices):
                    scored[cls] += scan.process_slice(j)
                    scan.prune(threshold)
                survivors[cls] += scan.n_alive
                # Lossless either way: the true top 10 are all alive.
                assert scan.alive[np.argsort(total)[:10]].all()
        assert survivors[DecodeBoundScan] > 0
        assert survivors[SQ8ShardScan] <= 1.02 * survivors[DecodeBoundScan], (
            survivors, scored,
        )
        assert scored[SQ8ShardScan] <= 1.02 * scored[DecodeBoundScan]


def f32_group_inputs(base, extra, queries, slices, metric):
    """A fused fp32 group scan's members: one per query, each listing
    every row of ``base`` and then of ``extra`` — attached as a delta
    segment, so the group's re-rank takes base and delta rows in mixed
    order (member 0's delta rows come before member 1's base rows)."""
    rows = np.vstack([base, extra]) if len(extra) else base

    def slabs_of(block):
        return [
            np.ascontiguousarray(slices.take(block, j))
            for j in range(slices.n_slices)
        ]

    n = rows.shape[0]
    part = CandidatePart(
        np.arange(n, dtype=np.int64),
        np.arange(n, dtype=np.intp),
        ShardSlabs(slabs_of(base), slabs_of(extra) if len(extra) else None),
        None if metric is Metric.L2 else slice_norms(rows, slices),
    )
    scan_args = {
        "queries": queries,
        "slices": slices,
        "metric": metric,
        # Float64 norms for the suffix cap, as in sq8_inputs.
        "query_norms": np.stack(
            [query_slice_norms(q.astype(np.float64), slices) for q in queries]
        ),
    }
    return rows, [part] * len(queries), scan_args


def exact_members(rows, queries, slices, metric):
    """Per member and slice the exact partials, and per member the
    exact total accumulated in canonical slice order."""
    partials = [
        [
            exact_slice_scores(
                rows, q, slice(*slices.slice_range(j)), metric
            )
            for j in range(slices.n_slices)
        ]
        for q in queries
    ]
    totals = []
    for member in partials:
        total = np.zeros(rows.shape[0], dtype=np.float64)
        for part_scores in member:
            total += part_scores
        totals.append(total)
    return partials, totals


class TestFp32PhaseOneNeverExceedsExact:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=adversarial_case())
    def test_bound_holds(self, case):
        metric = case["metric"]
        base, extra, query, slices = build_case(case)
        # A second member scoring against a base row.
        queries = np.vstack([query, base[0]]).astype(np.float32)
        rows, parts, scan_args = f32_group_inputs(
            base, extra, queries, slices, metric
        )
        partials, totals = exact_members(rows, queries, slices, metric)
        total = np.concatenate(totals)

        # One slice at a time, on a fresh scan: the accumulator after
        # its first stage *is* that slice's contribution.
        for j in range(slices.n_slices):
            scan = ShardGroupScan(parts, **scan_args)
            scan.process_slice(j)
            exact = np.concatenate([member[j] for member in partials])
            assert not np.isnan(scan.accumulated).any()
            assert np.all(scan.accumulated <= exact), (j, case)

        scan = ShardGroupScan(parts, **scan_args)
        for j in range(slices.n_slices):
            scan.process_slice(j)
            bounds = scan.lower_bounds()
            assert not np.isnan(bounds).any()
            assert np.all(bounds <= total), (j, case)
        ids, scores, owner = scan.survivors()
        assert scores.tobytes() == total.tobytes()
        np.testing.assert_array_equal(ids, np.tile(parts[0].ids, 2))
        np.testing.assert_array_equal(owner, np.repeat([0, 1], rows.shape[0]))

        # Pruned against each member's exact 3rd-best score: the group
        # keeps what the exact scan keeps, with the exact bits.
        thresholds = np.array([np.partition(t, 2)[2] for t in totals])
        scan = ShardGroupScan(parts, **scan_args)
        for j in range(slices.n_slices):
            scan.process_slice(j)
            scan.prune(thresholds)
        ids, scores, owner = scan.survivors()
        for m, t in enumerate(totals):
            keep = np.flatnonzero(t <= thresholds[m])
            np.testing.assert_array_equal(ids[owner == m], keep)
            assert scores[owner == m].tobytes() == t[keep].tobytes()

    def test_float32_overflow_yields_the_trivial_bound(self):
        """Squares and products of 1e22-sized values pass float32's
        range although the data does not: the stage claims nothing
        rather than NaN, and the re-rank still returns the exact bits."""
        rng = np.random.default_rng(0)
        base = (1e22 * rng.standard_normal((8, 6))).astype(np.float32)
        queries = (1e22 * rng.standard_normal((2, 6))).astype(np.float32)
        slices = DimensionSlices.even(6, 2)
        for metric, trivial in [
            (Metric.L2, 0.0), (Metric.INNER_PRODUCT, -np.inf),
        ]:
            rows, parts, scan_args = f32_group_inputs(
                base, [], queries, slices, metric
            )
            scan = ShardGroupScan(parts, **scan_args)
            scan.process_slice(0)
            assert np.all(scan.accumulated == trivial)
            scan.process_slice(1)
            assert not np.isnan(scan.lower_bounds()).any()
            _, totals = exact_members(rows, queries, slices, metric)
            _, scores, _ = scan.survivors()
            assert scores.tobytes() == np.concatenate(totals).tobytes()


class TestFp32PhaseOneIsTight:
    @pytest.mark.parametrize("metric", [Metric.L2, Metric.INNER_PRODUCT])
    def test_survivors_within_two_percent_of_the_exact_scan(self, metric):
        """5 000 x 128 clustered rows, four slices, 32 queries fused in
        one group, pruned against each query's true 10th-best score:
        the rounding pad hands the re-rank at most 2 % more rows than
        the exact per-query scan keeps, and scores at most 2 % more."""
        data = gaussian_blobs(5032, 128, n_blobs=16, cluster_std=0.5, seed=3)
        base, queries = data[:5000], data[5000:]
        slices = DimensionSlices.even(128, 4)
        rows, parts, scan_args = f32_group_inputs(
            base, [], queries, slices, metric
        )
        _, totals = exact_members(rows, queries, slices, metric)
        thresholds = np.array([np.partition(t, 9)[9] for t in totals])
        group = ShardGroupScan(parts, **scan_args)
        scored = {"group": 0, "exact": 0}
        survivors = {"exact": 0}
        singles = [
            ShardScan(
                rows=rows, candidate_ids=parts[0].ids, query=q,
                slices=slices, metric=metric, base_slice_norms=parts[0].norms,
                query_norms=scan_args["query_norms"][m],
            )
            for m, q in enumerate(queries)
        ]
        for j in range(slices.n_slices):
            scored["group"] += group.process_slice(j)
            group.prune(thresholds)
            for m, single in enumerate(singles):
                scored["exact"] += single.process_slice(j)
                single.prune(thresholds[m])
        survivors["group"] = group.n_alive
        ids, scores, owner = group.survivors()
        for m, single in enumerate(singles):
            survivors["exact"] += single.n_alive
            want_ids, want_scores = single.survivors()
            np.testing.assert_array_equal(ids[owner == m], want_ids)
            assert scores[owner == m].tobytes() == want_scores.tobytes()
        assert survivors["exact"] > 0
        assert survivors["group"] <= 1.02 * survivors["exact"], (
            survivors, scored,
        )
        assert scored["group"] <= 1.02 * scored["exact"]
