"""Property-based tests (hypothesis) for the core invariants.

The single most important invariant in the library: for ANY data, ANY
query, ANY partition grid, and ANY combination of engine flags, the
distributed engine returns byte-identical results to a single-node IVF
scan — dimension-level pruning is lossless.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.heap import TopKHeap
from repro.core.pruning import ShardScan
from repro.distance.kernels import pairwise_squared_l2, top_k_smallest
from repro.distance.metrics import Metric, squared_l2
from repro.distance.partial import DimensionSlices, slice_norms

FINITE_FLOATS = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, width=32
)


def arrays(rows_min, rows_max, cols_min, cols_max):
    return hnp.arrays(
        dtype=np.float32,
        shape=st.tuples(
            st.integers(rows_min, rows_max), st.integers(cols_min, cols_max)
        ),
        elements=FINITE_FLOATS,
    )


class TestPartialDistanceProperties:
    @given(data=arrays(1, 30, 4, 24), n_slices=st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_partial_sums_equal_full_distance(self, data, n_slices):
        if data.shape[1] < n_slices:
            n_slices = data.shape[1]
        slices = DimensionSlices.even(data.shape[1], n_slices)
        query = data[0]
        from repro.distance.partial import partial_squared_l2

        total = sum(
            partial_squared_l2(slices.take(data, j), slices.take(query, j))
            for j in range(n_slices)
        )
        np.testing.assert_allclose(
            total, squared_l2(data, query), rtol=1e-4, atol=1e-4
        )

    @given(data=arrays(2, 30, 4, 24))
    @settings(max_examples=50, deadline=None)
    def test_running_sums_monotone(self, data):
        slices = DimensionSlices.even(data.shape[1], min(4, data.shape[1]))
        query, rows = data[0], data[1:]
        from repro.distance.partial import partial_squared_l2

        acc = np.zeros(rows.shape[0])
        for j in range(slices.n_slices):
            step = partial_squared_l2(
                slices.take(rows, j), slices.take(query, j)
            )
            assert np.all(step >= 0.0)
            acc += step

    @given(data=arrays(2, 20, 4, 16))
    @settings(max_examples=50, deadline=None)
    def test_cauchy_schwarz_bound_holds(self, data):
        slices = DimensionSlices.even(data.shape[1], min(3, data.shape[1]))
        query, rows = data[0], data[1:]
        norms = slice_norms(rows, slices)
        q_norms = np.array(
            [
                np.linalg.norm(slices.take(query, j))
                for j in range(slices.n_slices)
            ]
        )
        from repro.distance.partial import (
            padded_cap,
            partial_inner_product,
            suffix_ip_bounds,
        )

        def true_remaining(remaining):
            return sum(
                (
                    partial_inner_product(
                        slices.take(rows, j), slices.take(query, j)
                    )
                    for j in remaining
                ),
                np.zeros(rows.shape[0]),
            )

        # Canonical order: the suffix-sum column the scans read, padded.
        suffix = suffix_ip_bounds(norms * q_norms)
        for done_count in range(slices.n_slices):
            bound = padded_cap(suffix[:, done_count])
            remaining = range(done_count, slices.n_slices)
            assert np.all(np.abs(true_remaining(remaining)) <= bound + 1e-5)
        # Any other order: the scan's own bound after the last slices.
        scan = ShardScan(
            rows=rows, candidate_ids=np.arange(rows.shape[0]), query=query,
            slices=slices, metric=Metric.INNER_PRODUCT,
            base_slice_norms=norms, query_norms=q_norms,
        )
        for done_count, j in enumerate(
            range(slices.n_slices - 1, 0, -1), start=1
        ):
            scan.process_slice(j)
            cap = np.abs(true_remaining(range(slices.n_slices - done_count)))
            assert np.all(scan.lower_bounds() <= scan.accumulated - cap + 1e-5)


class TestHeapProperties:
    @given(
        scores=st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False
            ),
            min_size=1,
            max_size=100,
        ),
        k=st.integers(1, 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_heap_equals_sorted_prefix(self, scores, k):
        heap = TopKHeap(k)
        for i, s in enumerate(scores):
            heap.push(s, i)
        expected = sorted(zip(scores, range(len(scores))))[:k]
        got = heap.items()
        assert len(got) == min(k, len(scores))
        for (es, ei), (gs, gi) in zip(expected, got):
            assert gi == ei
            assert gs == es

    @given(
        scores=st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            min_size=5,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_threshold_never_increases(self, scores):
        heap = TopKHeap(3)
        previous = float("inf")
        for i, s in enumerate(scores):
            heap.push(s, i)
            assert heap.threshold <= previous
            previous = heap.threshold


class TestShardScanProperties:
    @given(data=arrays(12, 40, 8, 24), seed=st.integers(0, 1000))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    def test_pruned_scan_top_k_equals_unpruned(self, data, seed):
        """Pruning with ANY valid threshold schedule preserves top-K."""
        rng = np.random.default_rng(seed)
        query = data[0]
        rows = data[1:]
        n_slices = min(4, data.shape[1])
        slices = DimensionSlices.even(data.shape[1], n_slices)
        k = 5

        full = pairwise_squared_l2(query[None, :], rows)[0]
        expected_ids, _ = top_k_smallest(full, k)

        heap = TopKHeap(k)
        # Prewarm with a random subset to create a realistic threshold;
        # prewarmed candidates are excluded from the scan, exactly as
        # the engine does it.
        warm = rng.choice(rows.shape[0], size=min(6, rows.shape[0]), replace=False)
        for idx in warm:
            heap.push(float(full[idx]), int(idx))

        scan = ShardScan(
            base=rows,
            candidate_ids=np.setdiff1d(np.arange(rows.shape[0]), warm),
            query=query,
            slices=slices,
        )
        order = rng.permutation(n_slices)
        for j in order:
            if scan.n_alive == 0:
                break
            scan.process_slice(int(j))
            scan.prune(heap.threshold)
        if scan.n_alive:
            ids, scores = scan.survivors()
            for cid, score in zip(ids, scores):
                heap.push(float(score), int(cid))
        got_ids = np.array([i for _, i in heap.items()])
        # The retrieved set must match the exact top-K up to floating-
        # point ties: compare the true scores of what was retrieved
        # against the true scores of the exact answer.
        np.testing.assert_allclose(
            full[got_ids], full[expected_ids], rtol=1e-7, atol=1e-7
        )


class TestEngineProperty:
    @given(
        seed=st.integers(0, 50),
        b_vec=st.sampled_from([1, 2, 4]),
        nprobe=st.integers(1, 8),
        pruning=st.booleans(),
        pipeline=st.booleans(),
        load_balance=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_engine_matches_reference_for_random_configs(
        self, seed, b_vec, nprobe, pruning, pipeline, load_balance
    ):
        from repro.cluster.cluster import Cluster
        from repro.core.config import HarmonyConfig
        from repro.core.partition import build_plan
        from repro.core.pipeline import PipelineEngine
        from repro.data.synthetic import gaussian_blobs
        from repro.index.ivf import IVFFlatIndex

        data = gaussian_blobs(240, 16, n_blobs=6, cluster_std=0.5, seed=seed)
        queries = gaussian_blobs(
            246, 16, n_blobs=6, cluster_std=0.5, seed=seed
        )[240:]
        index = IVFFlatIndex(dim=16, nlist=8, seed=0)
        index.train(data)
        index.add(data)
        b_dim = 4 // b_vec
        plan = build_plan(index, 4, b_vec, b_dim)
        config = HarmonyConfig(
            n_machines=4,
            nlist=8,
            nprobe=nprobe,
            seed=0,
            enable_pruning=pruning,
            enable_pipeline=pipeline,
            enable_load_balance=load_balance,
        )
        engine = PipelineEngine(index, plan, Cluster(4), config)
        result, _ = engine.run(queries, k=5, nprobe=nprobe)
        ref_d, ref_i = index.search(queries, k=5, nprobe=nprobe)
        np.testing.assert_array_equal(result.ids, ref_i)
        np.testing.assert_allclose(result.distances, ref_d, rtol=1e-9)


class TestNodeTimelineProperties:
    @given(
        items=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_occupy_never_overlaps_and_respects_earliest(self, items):
        from repro.cluster.node import WorkerNode

        node = WorkerNode(node_id=0)
        intervals = []
        for duration, earliest in items:
            start, end = node.occupy(duration, earliest=earliest)
            assert start >= earliest
            assert end == pytest.approx(start + duration)
            intervals.append((start, end))
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-9

    @given(
        items=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_total_busy_time_equals_sum_of_durations(self, items):
        from repro.cluster.node import WorkerNode

        node = WorkerNode(node_id=0)
        for duration, earliest in items:
            node.occupy(duration, earliest=earliest)
        assert node.breakdown.total == pytest.approx(
            sum(d for d, _ in items)
        )
