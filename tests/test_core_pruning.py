"""Unit tests for repro.core.pruning (ShardScan + PruningStats) and the
one slice loop that drives a scan (``drive_steps``)."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.executor.kernel import drive_steps
from repro.core.layout import CandidatePart, ShardSlabs
from repro.core.pruning import PruningStats, ShardScan
from repro.distance.metrics import Metric, squared_l2
from repro.distance.partial import DimensionSlices, slice_norms


@pytest.fixture()
def base():
    return np.random.default_rng(0).standard_normal((60, 16)).astype(np.float32)


@pytest.fixture()
def query():
    return np.random.default_rng(1).standard_normal(16).astype(np.float32)


@pytest.fixture()
def slices():
    return DimensionSlices.even(16, 4)


def row_part(rows, slices, norms=None):
    """A plain row block as the gather record the group scan takes."""
    n = rows.shape[0]
    return CandidatePart(
        np.arange(n, dtype=np.int64),
        np.arange(n, dtype=np.intp),
        ShardSlabs.of_rows(rows, slices),
        norms,
    )


def make_scan(base, query, slices, metric=Metric.L2):
    ids = np.arange(base.shape[0], dtype=np.int64)
    norms = None
    if metric is not Metric.L2:
        norms = slice_norms(base, slices)
    return ShardScan(
        base=base,
        candidate_ids=ids,
        query=query,
        slices=slices,
        metric=metric,
        base_slice_norms=norms,
    )


def _alive(scan) -> np.ndarray:
    """Which of the scan's original candidates are still alive (its
    candidate ids are unique)."""
    return np.isin(scan.candidate_ids, scan.ids)


class TestDriveSteps:
    """The contract the host paths, the simulator and the planner's
    survival pilot all rely on."""

    def test_one_yield_per_stage_in_the_given_order(self, base, query, slices):
        scan = make_scan(base, query, slices)
        steps = list(drive_steps(scan, [2, 0, 3, 1]))
        assert [block for block, _ in steps] == [2, 0, 3, 1]
        assert scan.done == [2, 0, 3, 1]
        ids, scores = scan.survivors()
        np.testing.assert_allclose(scores, squared_l2(base[ids], query))

    def test_processed_is_the_rows_alive_when_the_stage_began(
        self, base, query, slices
    ):
        scan = make_scan(base, query, slices)
        threshold = float(np.sort(squared_l2(base, query))[5])
        steps = drive_steps(scan, range(4), lambda: threshold)
        alive_before = []
        while True:
            alive_before.append(scan.n_alive)
            step = next(steps, None)
            if step is None:
                break
            assert step[1] == alive_before[-1]
        assert alive_before[0] == base.shape[0]
        assert alive_before[-1] < base.shape[0]  # pruning did shrink it

    def test_ends_once_nothing_is_alive(self, base, query, slices):
        scan = make_scan(base, query, slices)
        taken = []

        def order():
            for block in range(4):
                taken.append(block)
                yield block

        steps = list(drive_steps(scan, order(), lambda: -1.0))
        assert steps == [(0, base.shape[0])]
        assert scan.n_alive == 0
        assert taken == [0]  # no block is taken once nothing is alive

    def test_never_prunes_without_thresholds(self, base, query, slices):
        scan = make_scan(base, query, slices)
        scan.prune = lambda *_: pytest.fail("pruned without thresholds")
        steps = list(drive_steps(scan, range(4)))
        assert steps == [(block, base.shape[0]) for block in range(4)]
        assert scan.n_alive == base.shape[0]

    def test_it_is_the_only_slice_loop_in_src(self):
        """Outside the scan classes, ``process_slice`` and ``prune`` are
        called in ``drive_steps`` and nowhere else in ``src/``."""
        src = Path(__file__).resolve().parents[1] / "src"
        inside, outside = 0, []
        for path in sorted((src / "repro").rglob("*.py")):
            if path.name == "pruning.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            loops = [
                range(node.lineno, node.end_lineno + 1)
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "drive_steps"
            ]
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("process_slice", "prune")
                ):
                    continue
                if any(node.lineno in loop for loop in loops):
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
        assert outside == []
        assert inside == 2

    def test_one_module_holds_the_exact_reduction_and_the_pad(self):
        """In ``src/``, only ``repro/distance/partial.py`` names the bound
        pad's constants or spells the exact reduction's ``einsum``: every
        other caller goes through its functions."""
        src = Path(__file__).resolve().parents[1] / "src"
        owned = re.compile(
            r"BOUND_REL_EPS|BOUND_ABS_EPS|einsum\(\s*[\"']ij,ij->i[\"']"
        )
        strays = []
        for path in sorted((src / "repro").rglob("*.py")):
            if path.relative_to(src).as_posix() == "repro/distance/partial.py":
                continue
            text = path.read_text(encoding="utf-8")
            for match in owned.finditer(text):
                lineno = text.count("\n", 0, match.start()) + 1
                strays.append(f"{path.name}:{lineno}")
        assert strays == []


class TestShardScanAccumulation:
    def test_full_scan_matches_direct_distance(self, base, query, slices):
        scan = make_scan(base, query, slices)
        for j in range(4):
            scan.process_slice(j)
        ids, scores = scan.survivors()
        np.testing.assert_array_equal(ids, np.arange(60))
        np.testing.assert_allclose(scores, squared_l2(base, query), rtol=1e-6)

    def test_slice_order_irrelevant_for_totals(self, base, query, slices):
        a = make_scan(base, query, slices)
        b = make_scan(base, query, slices)
        for j in (0, 1, 2, 3):
            a.process_slice(j)
        for j in (3, 1, 0, 2):
            b.process_slice(j)
        np.testing.assert_allclose(a.accumulated, b.accumulated, rtol=1e-9)

    def test_double_process_raises(self, base, query, slices):
        scan = make_scan(base, query, slices)
        scan.process_slice(0)
        with pytest.raises(ValueError, match="already processed"):
            scan.process_slice(0)

    def test_process_returns_alive_count(self, base, query, slices):
        scan = make_scan(base, query, slices)
        assert scan.process_slice(0) == 60
        # Kill roughly half through the public pruning path; the next
        # stage must only charge for the compacted survivors.
        threshold = float(np.median(scan.lower_bounds()))
        killed = scan.prune(threshold)
        assert killed > 0
        assert scan.process_slice(1) == 60 - killed

    def test_prune_compacts_state(self, base, query, slices):
        scan = make_scan(base, query, slices)
        scan.process_slice(0)
        threshold = float(np.median(scan.lower_bounds()))
        killed = scan.prune(threshold)
        n_alive = 60 - killed
        # Dense arrays shrink to the survivors...
        assert scan.ids.size == n_alive
        assert scan.accumulated.size == n_alive
        assert scan.n_alive == n_alive
        # ...while the mask over the original ids keeps full length.
        assert _alive(scan).size == 60
        assert int(_alive(scan).sum()) == n_alive
        assert scan.candidate_ids.size == 60
        np.testing.assert_array_equal(
            scan.ids, scan.candidate_ids[_alive(scan)]
        )

    def test_survivors_before_completion_raises(self, base, query, slices):
        scan = make_scan(base, query, slices)
        scan.process_slice(0)
        with pytest.raises(RuntimeError, match="unprocessed"):
            scan.survivors()


class TestShardScanPruningL2:
    def test_prune_is_lossless(self, base, query, slices):
        """Pruned candidates can never belong to the final top set."""
        scan = make_scan(base, query, slices)
        full = squared_l2(base, query)
        threshold = float(np.median(full))
        for j in range(4):
            scan.process_slice(j)
            scan.prune(threshold)
        # Everything with final score <= threshold must have survived.
        should_survive = full <= threshold
        assert np.all(_alive(scan)[should_survive])

    def test_prune_infinite_threshold_noop(self, base, query, slices):
        scan = make_scan(base, query, slices)
        scan.process_slice(0)
        assert scan.prune(np.inf) == 0
        assert scan.n_alive == 60

    def test_prune_counts(self, base, query, slices):
        scan = make_scan(base, query, slices)
        for j in range(4):
            scan.process_slice(j)
        pruned = scan.prune(float(np.min(squared_l2(base, query))))
        assert pruned == 59  # everything except the single minimum

    def test_boundary_ties_survive(self, base, query, slices):
        """Strict comparison keeps candidates exactly at the threshold."""
        scan = make_scan(base, query, slices)
        for j in range(4):
            scan.process_slice(j)
        full = squared_l2(base, query)
        threshold = float(full[7])
        scan.prune(threshold)
        assert _alive(scan)[7]

    def test_lower_bounds_never_exceed_final(self, base, query, slices):
        scan = make_scan(base, query, slices)
        final = squared_l2(base, query)
        for j in range(4):
            bounds = scan.lower_bounds()
            assert np.all(bounds[_alive(scan)] <= final[_alive(scan)] + 1e-9)
            scan.process_slice(j)


class TestShardScanInnerProduct:
    def test_requires_norms(self, base, query, slices):
        with pytest.raises(ValueError, match="base_slice_norms"):
            ShardScan(
                base=base,
                candidate_ids=np.arange(10),
                query=query,
                slices=slices,
                metric=Metric.INNER_PRODUCT,
            )

    def test_final_scores_are_negated_dots(self, base, query, slices):
        scan = make_scan(base, query, slices, metric=Metric.INNER_PRODUCT)
        for j in range(4):
            scan.process_slice(j)
        _, scores = scan.survivors()
        expected = -(base.astype(np.float64) @ query.astype(np.float64))
        np.testing.assert_allclose(scores, expected, rtol=1e-6)

    def test_ip_lower_bounds_valid(self, base, query, slices):
        """Cauchy-Schwarz bound must never exceed the final score."""
        scan = make_scan(base, query, slices, metric=Metric.INNER_PRODUCT)
        final = -(base.astype(np.float64) @ query.astype(np.float64))
        scan.process_slice(0)
        bounds = scan.lower_bounds()
        assert np.all(bounds <= final + 1e-9)
        scan.process_slice(2)
        bounds = scan.lower_bounds()
        assert np.all(bounds <= final + 1e-9)

    def test_ip_prune_lossless(self, base, query, slices):
        scan = make_scan(base, query, slices, metric=Metric.INNER_PRODUCT)
        final = -(base.astype(np.float64) @ query.astype(np.float64))
        threshold = float(np.median(final))
        for j in range(4):
            scan.process_slice(j)
            scan.prune(threshold)
        should_survive = final <= threshold
        assert np.all(_alive(scan)[should_survive])


class TestShardGroupScan:
    """The fused multi-query block must be bitwise equal to per-query."""

    @pytest.mark.parametrize(
        "metric", [Metric.L2, Metric.INNER_PRODUCT]
    )
    def test_group_matches_per_query_scans(self, base, slices, metric):
        from repro.core.pruning import ShardGroupScan
        from repro.distance.partial import query_slice_norms

        rng = np.random.default_rng(7)
        queries = rng.standard_normal((3, 16)).astype(np.float32)
        norms = None
        if metric is not Metric.L2:
            norms = slice_norms(base, slices)

        # Per-query references, each scanning all 60 candidates.
        singles = [make_scan(base, q, slices, metric=metric) for q in queries]
        thresholds = np.array([np.inf, 2.0, 5.0])

        group = ShardGroupScan(
            [row_part(base, slices, norms) for _ in queries],
            queries=queries,
            slices=slices,
            metric=metric,
            query_norms=(
                None
                if norms is None
                else np.stack(
                    [query_slice_norms(q, slices) for q in queries]
                )
            ),
        )
        for j in range(4):
            group.process_slice(j)
            group.prune(thresholds)
            for q, scan in enumerate(singles):
                scan.process_slice(j)
                scan.prune(float(thresholds[q]))
        got_ids, got_scores, got_query = group.survivors()
        for q, scan in enumerate(singles):
            want_ids, want_scores = scan.survivors()
            mask = got_query == q
            np.testing.assert_array_equal(got_ids[mask], want_ids)
            np.testing.assert_array_equal(got_scores[mask], want_scores)

    def test_requires_norms_for_ip(self, base, slices):
        from repro.core.pruning import ShardGroupScan

        with pytest.raises(ValueError, match="base_slice_norms"):
            ShardGroupScan(
                [row_part(base, slices), row_part(base, slices)],
                queries=base[:2],
                slices=slices,
                metric=Metric.INNER_PRODUCT,
            )


class TestPruningStats:
    def test_record_and_ratios(self):
        stats = PruningStats(3)
        stats.record(0, 0, 100)
        stats.record(1, 40, 100)
        stats.record(2, 80, 100)
        np.testing.assert_allclose(stats.ratios(), [0.0, 0.4, 0.8])

    def test_average_ratio(self):
        stats = PruningStats(2)
        stats.record(0, 0, 10)
        stats.record(1, 5, 10)
        assert stats.average_ratio() == pytest.approx(0.25)

    def test_merge(self):
        a = PruningStats(2)
        b = PruningStats(2)
        a.record(1, 2, 10)
        b.record(1, 8, 10)
        a.merge(b)
        np.testing.assert_allclose(a.ratios(), [0.0, 0.5])

    def test_merge_mismatched_raises(self):
        with pytest.raises(ValueError):
            PruningStats(2).merge(PruningStats(3))

    def test_empty_positions_are_zero(self):
        stats = PruningStats(4)
        np.testing.assert_array_equal(stats.ratios(), np.zeros(4))

    def test_invalid_record_raises(self):
        stats = PruningStats(2)
        with pytest.raises(IndexError):
            stats.record(5, 0, 10)
        with pytest.raises(ValueError):
            stats.record(0, 11, 10)
        with pytest.raises(ValueError):
            stats.record(0, -1, 10)

    def test_invalid_size_raises(self):
        with pytest.raises(ValueError):
            PruningStats(0)


class TestSlabFedScanIsBitIdentical:
    """A scan fed from the packed layout's slabs accumulates, slice by
    slice, exactly the float64 bits of the row-major arithmetic: rows
    widened to float64, the query subtracted (L2) or broadcast (IP
    family), one ``einsum("ij,ij->i")`` over fresh contiguous arrays —
    written out below, with nothing reused between slices. The SQ8
    scan's phase one lower-bounds those bits, keeps every row the fp32
    scan keeps, and re-ranks its survivors to exactly them."""

    @staticmethod
    def _reference_slice(rows, query, cols, metric):
        rows64 = np.array(rows[:, cols], dtype=np.float64)
        q64 = np.array(query[cols], dtype=np.float64)
        if metric is Metric.L2:
            d = rows64 - q64
            return np.einsum("ij,ij->i", d, d)
        return -np.einsum(
            "ij,ij->i", rows64, np.broadcast_to(q64, rows64.shape)
        )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**16),
        metric=st.sampled_from(
            [Metric.L2, Metric.INNER_PRODUCT, Metric.COSINE]
        ),
        sq8=st.booleans(),
        n_blocks=st.sampled_from([2, 3, 4]),
    )
    def test_per_slice_accumulated_bits(self, seed, metric, sq8, n_blocks):
        from repro.core.executor.kernel import ScanKernel, open_scan
        from repro.core.partition import build_plan
        from repro.index.ivf import IVFFlatIndex

        rng = np.random.default_rng(seed)
        dim = 14
        base = rng.standard_normal((240, dim)).astype(np.float32)
        index = IVFFlatIndex(dim=dim, nlist=6, metric=metric, seed=0)
        index.train(base)
        index.add(base)
        plan = build_plan(
            index, n_machines=n_blocks, n_vector_shards=1,
            n_dim_blocks=n_blocks,
        )
        kernel = ScanKernel(
            index, plan, scan_precision="sq8" if sq8 else "fp32"
        )
        # A delta segment and tombstones, so takes cross the base/delta
        # split point.
        index.add(rng.standard_normal((20, dim)).astype(np.float32))
        index.remove_ids(rng.choice(240, size=10, replace=False))
        layout = kernel.packed_base()
        query = kernel.prepare_queries(
            rng.standard_normal(dim).astype(np.float32)
        )[0]
        state = kernel.begin_query(
            0, query, index.probe(query[None, :], 4)[0], 5
        )
        part = kernel._gather_candidates(state, 0)
        if part is None:
            return
        scan = open_scan(
            layout, [part], [query], [state.query_norms], plan, kernel.metric
        )
        slices = plan.slices
        rows = index.base[part.ids]
        if sq8:
            # The fp32 scan over the same candidates, pruned on the same
            # thresholds: whatever it keeps, phase one must keep.
            fp32 = ShardScan(
                rows=rows, candidate_ids=part.ids, query=query,
                slices=slices, metric=metric, base_slice_norms=part.norms,
                query_norms=state.query_norms,
            )
        expect = np.zeros(part.ids.size, dtype=np.float64)
        alive = np.ones(part.ids.size, dtype=bool)
        for j in range(slices.n_slices):
            cols = slice(*slices.slice_range(j))
            expect += self._reference_slice(rows, query, cols, metric)
            assert scan.process_slice(j) == int(alive.sum())
            if not sq8:
                assert scan.accumulated.tobytes() == expect[alive].tobytes()
            else:
                # Phase one promises a bound, not a bit pattern (its
                # float32 BLAS sums depend on the library's order).
                assert np.all(scan.accumulated <= expect[alive])
                fp32.process_slice(j)
            # Prune on the median bound so later stages take a
            # compacted, still base-before-delta index array.
            threshold = float(np.median(scan.lower_bounds()))
            scan.prune(threshold)
            alive = _alive(scan)
            if sq8:
                fp32.prune(threshold)
                assert not (_alive(fp32) & ~alive).any()
        if sq8:
            # Re-ranked survivors carry the fp32 scan's exact bits.
            ids, scores = scan.survivors()
            np.testing.assert_array_equal(ids, part.ids[alive])
            assert scores.tobytes() == expect[alive].tobytes()


class TestPhaseOneScoresCodesWhereTheyLie:
    """Structural guard: SQ8 phase one never decodes again."""

    @staticmethod
    def _called_names(node):
        import ast

        return {
            call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))
        }

    def test_no_decode_and_no_float64_kernel_in_the_scorer(self):
        import ast
        import inspect

        import repro.core.pruning as pruning

        tree = ast.parse(inspect.getsource(pruning))
        assert "sq8_decode" not in self._called_names(tree)
        scorers = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef)
            and node.name in ("_Scorer", "_SQ8Scorer")
        ]
        assert len(scorers) == 2
        for scorer in scorers:
            assert not self._called_names(scorer) & {
                "sq8_decode", "partial_squared_l2", "partial_inner_product",
                "einsum",
            }
