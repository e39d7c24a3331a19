"""Focused tests for the report dataclasses in repro.core.results."""

import json

import numpy as np
import pytest

from repro.cluster.stats import TimeBreakdown
from repro.core.results import (
    BuildReport,
    DegradedReport,
    ExecutionReport,
    FaultStats,
    PlacementReport,
    SearchResult,
)


def make_report(**overrides):
    defaults = dict(
        n_queries=10,
        k=5,
        nprobe=4,
        simulated_seconds=2.0,
        breakdown=TimeBreakdown(1.0, 0.5, 0.1),
        worker_loads=np.array([1.0, 2.0, 3.0, 2.0]),
        pruning=None,
        peak_memory_bytes=1000,
    )
    defaults.update(overrides)
    return ExecutionReport(**defaults)


class TestSearchResult:
    def test_shape_properties(self):
        result = SearchResult(
            distances=np.zeros((7, 3)), ids=np.zeros((7, 3), dtype=np.int64)
        )
        assert result.n_queries == 7
        assert result.k == 3


class TestExecutionReport:
    def test_qps(self):
        assert make_report().qps == pytest.approx(5.0)

    def test_qps_zero_time_is_zero(self):
        # A zero-duration batch has no meaningful throughput; inf
        # would also break strict JSON export.
        assert make_report(simulated_seconds=0.0).qps == 0.0
        assert make_report(simulated_seconds=-1.0).qps == 0.0

    def test_load_imbalance_is_std(self):
        report = make_report()
        assert report.load_imbalance == pytest.approx(
            float(np.std([1.0, 2.0, 3.0, 2.0]))
        )

    def test_normalized_imbalance_zero_loads(self):
        report = make_report(worker_loads=np.zeros(4))
        assert report.normalized_imbalance == 0.0

    def test_worker_utilization(self):
        report = make_report()
        np.testing.assert_allclose(
            report.worker_utilization(), [0.5, 1.0, 1.5, 1.0]
        )

    def test_worker_utilization_zero_makespan(self):
        report = make_report(simulated_seconds=0.0)
        np.testing.assert_array_equal(report.worker_utilization(), 0.0)

    def test_to_dict_minimal(self):
        data = make_report().to_dict()
        assert "latency" not in data
        assert "pruning_ratios" not in data
        assert data["breakdown"]["computation"] == 1.0

    def test_to_dict_with_latency_and_pruning(self):
        from repro.core.pruning import PruningStats

        stats = PruningStats(2)
        stats.record(0, 0, 10)
        stats.record(1, 4, 10)
        report = make_report(
            pruning=stats, latencies=np.array([0.1, 0.2, 0.3])
        )
        data = report.to_dict()
        assert data["latency"]["mean"] == pytest.approx(0.2)
        assert data["pruning_ratios"] == [0.0, 0.4]

    def test_to_dict_strictly_json_serializable(self):
        # Even a zero-duration batch must survive allow_nan=False
        # (the qps=inf regression).
        for report in (
            make_report(),
            make_report(simulated_seconds=0.0),
            make_report(
                latencies=np.array([0.1, 0.2]),
                fault_stats=FaultStats(skipped_scans=2),
                degraded=DegradedReport(coverage=np.array([1.0, 0.5])),
            ),
        ):
            text = json.dumps(report.to_dict(), allow_nan=False)
            assert json.loads(text)["n_queries"] == 10

    def test_to_dict_includes_trace_summary(self):
        from repro.obs.trace import Span, Trace

        trace = Trace(
            spans=(Span("scan", "computation", 0, 0.0, 1.0),)
        )
        data = make_report(trace=trace).to_dict()
        assert data["trace"]["n_spans"] == 1
        assert data["trace"]["category_totals"]["computation"] == 1.0
        json.dumps(data, allow_nan=False)


class TestFaultStatsDict:
    def test_key_stability(self):
        # Downstream dashboards key on these names; changing them is
        # a breaking change that must be deliberate.
        assert list(FaultStats().to_dict()) == [
            "skipped_scans",
            "abandoned_scans",
            "worker_respawns",
            "tasks_requeued",
        ]

    def test_values_round_trip(self):
        stats = FaultStats(skipped_scans=1, worker_respawns=3, abandoned_scans=2)
        data = stats.to_dict()
        assert data["skipped_scans"] == 1
        assert data["worker_respawns"] == 3
        assert data["abandoned_scans"] == 2
        json.dumps(data, allow_nan=False)


class TestDegradedReportDict:
    def test_key_stability(self):
        report = DegradedReport(coverage=np.array([1.0, 0.25]))
        assert list(report.to_dict()) == [
            "mean_coverage",
            "min_coverage",
            "n_degraded_queries",
            "skipped_scans",
            "abandoned_scans",
            "recall_vs_healthy",
            "recall_delta",
        ]

    def test_empty_coverage_serializes(self):
        report = DegradedReport(coverage=np.zeros(0))
        data = report.to_dict()
        assert data["mean_coverage"] == 1.0
        assert data["min_coverage"] == 1.0
        json.dumps(data, allow_nan=False)


class TestPlacementReport:
    def test_aggregates(self):
        report = PlacementReport(
            per_machine_bytes={0: 100, 1: 300}, preassign_seconds=0.5
        )
        assert report.max_machine_bytes == 300
        assert report.mean_machine_bytes == 200.0
        assert report.total_bytes == 400

    def test_empty(self):
        report = PlacementReport()
        assert report.max_machine_bytes == 0
        assert report.mean_machine_bytes == 0.0
        assert report.total_bytes == 0


class TestBuildReport:
    def test_total(self):
        report = BuildReport(
            train_seconds=1.0,
            add_seconds=0.5,
            preassign_seconds=0.25,
            placement=PlacementReport(),
        )
        assert report.total_seconds == pytest.approx(1.75)
