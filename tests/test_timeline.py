"""Tests for cluster tracing and the ASCII timeline renderer."""

import numpy as np
import pytest

from repro.bench.timeline import render_timeline, utilization_grid
from repro.cluster.cluster import CLIENT_NODE, Cluster
from repro.obs.trace import Tracer


def _traced(n_workers: int, capacity: int = 1 << 16) -> Cluster:
    cluster = Cluster(n_workers)
    cluster.tracer = Tracer(capacity=capacity)
    return cluster


class TestTracing:
    def test_disabled_by_default(self):
        cluster = Cluster(2)
        assert cluster.tracer is None
        cluster.compute(0, 1e6)  # records nowhere, raises nothing

    def test_records_all_categories(self):
        cluster = _traced(2)
        cluster.compute(0, 1e6)
        cluster.overhead(1, 1e-6)
        cluster.transfer(0, 1, 1000)
        categories = {s.category for s in cluster.tracer.trace().spans}
        assert categories == {"computation", "other", "communication"}

    def test_reset_clears_events(self):
        cluster = _traced(2)
        cluster.compute(0, 1e6)
        cluster.reset_time()
        assert len(cluster.tracer.trace()) == 0

    def test_disable(self):
        cluster = _traced(2)
        tracer = cluster.tracer
        cluster.tracer = None
        cluster.compute(0, 1e6)
        assert len(tracer.trace()) == 0

    def test_event_bounds(self):
        cluster = _traced(2)
        start, end = cluster.compute(0, 1e6, earliest=0.5)
        (span,) = cluster.tracer.trace().spans
        assert (span.category, span.node) == ("computation", 0)
        assert (span.start, span.end) == (start, end)


class TestUtilizationGrid:
    def test_requires_tracing(self):
        with pytest.raises(RuntimeError, match="tracing"):
            utilization_grid(Cluster(2))

    def test_empty_trace(self):
        cluster = _traced(2)
        node_ids, grid = utilization_grid(cluster, buckets=10)
        assert node_ids[0] == CLIENT_NODE
        np.testing.assert_array_equal(grid, 0.0)

    def test_fully_busy_node(self):
        cluster = _traced(2)
        cluster.compute(0, cluster.workers[0].compute_rate)  # 1 second
        _, grid = utilization_grid(cluster, buckets=10)
        worker0_row = grid[1]
        np.testing.assert_allclose(worker0_row, 1.0)
        np.testing.assert_allclose(grid[2], 0.0)  # worker 1 idle

    def test_half_busy(self):
        cluster = _traced(2)
        rate = cluster.workers[0].compute_rate
        cluster.compute(0, rate)            # busy [0, 1)
        cluster.compute(1, rate * 2)        # busy [0, 2): horizon 2s
        _, grid = utilization_grid(cluster, buckets=2)
        assert grid[1, 0] == pytest.approx(1.0)
        assert grid[1, 1] == pytest.approx(0.0)

    def test_invalid_buckets(self):
        cluster = _traced(2)
        with pytest.raises(ValueError):
            utilization_grid(cluster, buckets=0)

    def test_merge_and_host_lanes_skipped(self):
        cluster = _traced(1)
        cluster.compute(0, cluster.workers[0].compute_rate)
        # The merge lane and a host-thread lane must not add rows or
        # stretch the horizon past the worker's one second.
        cluster.tracer.record("merge", "other", -2, 0.0, 5.0)
        cluster.tracer.record("scan", "computation", 1000, 0.0, 5.0)
        node_ids, grid = utilization_grid(cluster, buckets=4)
        assert node_ids == [CLIENT_NODE, 0]
        np.testing.assert_allclose(grid[1], 1.0)

    def test_dropped_spans_rejected(self):
        cluster = _traced(1, capacity=2)
        for _ in range(3):
            cluster.compute(0, 1e6)
        with pytest.raises(ValueError, match="dropped"):
            utilization_grid(cluster)


class TestRenderTimeline:
    def test_rows_and_labels(self):
        cluster = _traced(3)
        cluster.compute(0, 1e6)
        text = render_timeline(cluster, buckets=20)
        lines = text.splitlines()
        assert len(lines) == 4  # client + 3 workers
        assert lines[0].lstrip().startswith("client")
        assert "worker 2" in lines[3]

    def test_busy_shows_darker(self):
        cluster = _traced(2)
        cluster.compute(0, cluster.workers[0].compute_rate)
        text = render_timeline(cluster, buckets=10)
        lines = text.splitlines()
        assert "#" in lines[1]  # the busy worker
        assert "#" not in lines[2]  # the idle one

    def test_end_to_end_with_engine(self, tiny_data, tiny_queries):
        from repro.core.config import HarmonyConfig
        from repro.core.database import HarmonyDB

        db = HarmonyDB(
            dim=32, config=HarmonyConfig(n_machines=4, nlist=16, nprobe=4)
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        db.enable_tracing()
        db.search(tiny_queries, k=5)
        text = render_timeline(db.cluster, buckets=40)
        assert len(text.splitlines()) == 5
        assert "%" in text

    def test_failed_last_worker_keeps_its_row(self, tiny_data, tiny_queries):
        from repro.core.config import HarmonyConfig
        from repro.core.database import HarmonyDB

        db = HarmonyDB(
            dim=32,
            config=HarmonyConfig(n_machines=4, nlist=16, nprobe=4, replicas=2),
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        db.cluster.fail_worker(3)
        db.enable_tracing()
        db.search(tiny_queries, k=5)
        lines = render_timeline(db.cluster, buckets=40).splitlines()
        assert len(lines) == 5
        assert "worker 3" in lines[4] and lines[4].endswith("0%")
