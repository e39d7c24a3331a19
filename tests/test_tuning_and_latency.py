"""Tests for the nprobe tuner and simulated latency reporting."""

import numpy as np
import pytest

from repro.core.capacity import tune_nprobe
from repro.core.config import HarmonyConfig
from repro.core.database import HarmonyDB
from repro.index.ivf import IVFFlatIndex


class TestTuneNprobe:
    def test_target_one_needs_more_probes_than_low_target(
        self, trained_index, tiny_queries
    ):
        low = tune_nprobe(trained_index, tiny_queries, target_recall=0.5)
        high = tune_nprobe(trained_index, tiny_queries, target_recall=1.0)
        assert low.nprobe <= high.nprobe
        assert high.achieved_recall == pytest.approx(1.0)

    def test_full_probe_always_meets_target_one(
        self, trained_index, tiny_queries
    ):
        result = tune_nprobe(trained_index, tiny_queries, target_recall=1.0)
        assert result.target_met
        assert result.achieved_recall == 1.0

    def test_trace_is_monotone_in_nprobe(self, trained_index, tiny_queries):
        result = tune_nprobe(
            trained_index,
            tiny_queries,
            target_recall=1.0,
            candidates=[1, 2, 4, 8, 16],
        )
        probes = [p for p, _ in result.trace]
        assert probes == sorted(probes)

    def test_stops_at_first_sufficient(self, trained_index, tiny_queries):
        result = tune_nprobe(
            trained_index, tiny_queries, target_recall=0.01
        )
        assert result.nprobe == 1
        assert len(result.trace) == 1

    def test_unreachable_target_reports_best(self, tiny_data, tiny_queries):
        index = IVFFlatIndex(dim=32, nlist=16, seed=0)
        index.train(tiny_data)
        index.add(tiny_data)
        result = tune_nprobe(
            index, tiny_queries, target_recall=1.0, candidates=[1]
        )
        if not result.target_met:
            assert result.nprobe == 1

    def test_respects_deletes(self, tiny_data, tiny_queries):
        index = IVFFlatIndex(dim=32, nlist=16, seed=0)
        index.train(tiny_data)
        index.add(tiny_data)
        index.remove_ids(np.arange(50))
        result = tune_nprobe(index, tiny_queries, target_recall=1.0)
        assert result.target_met  # ground truth computed on live set

    def test_invalid_target_raises(self, trained_index, tiny_queries):
        with pytest.raises(ValueError):
            tune_nprobe(trained_index, tiny_queries, target_recall=0.0)
        with pytest.raises(ValueError):
            tune_nprobe(trained_index, tiny_queries, target_recall=1.5)

    def test_untrained_raises(self, tiny_queries):
        with pytest.raises(RuntimeError):
            tune_nprobe(
                IVFFlatIndex(dim=32, nlist=4), tiny_queries, target_recall=0.9
            )


class TestLatencyReporting:
    @pytest.fixture()
    def report(self, tiny_data, tiny_queries):
        db = HarmonyDB(
            dim=32, config=HarmonyConfig(n_machines=4, nlist=16, nprobe=4)
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        _, report = db.search(tiny_queries, k=5)
        return report

    def test_latencies_recorded_per_query(self, report, tiny_queries):
        assert report.latencies.shape == (len(tiny_queries),)
        assert np.all(report.latencies > 0)

    def test_percentiles_ordered(self, report):
        p50 = report.latency_percentile(50)
        p95 = report.latency_percentile(95)
        p99 = report.latency_percentile(99)
        assert p50 <= p95 <= p99

    def test_mean_latency_within_range(self, report):
        assert (
            report.latencies.min()
            <= report.mean_latency
            <= report.latencies.max()
        )

    def test_latency_below_makespan(self, report):
        assert report.latency_percentile(100) <= report.simulated_seconds + 1e-12

    def test_invalid_percentile_raises(self, report):
        with pytest.raises(ValueError):
            report.latency_percentile(101)

    def test_latency_grows_with_nprobe(self, tiny_data, tiny_queries):
        db = HarmonyDB(
            dim=32, config=HarmonyConfig(n_machines=4, nlist=16, nprobe=4)
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        _, low = db.search(tiny_queries, k=5, nprobe=1)
        _, high = db.search(tiny_queries, k=5, nprobe=16)
        assert high.mean_latency > low.mean_latency

    def test_empty_report_raises(self):
        from repro.cluster.stats import TimeBreakdown
        from repro.core.results import ExecutionReport

        report = ExecutionReport(
            n_queries=0,
            k=5,
            nprobe=4,
            simulated_seconds=1.0,
            breakdown=TimeBreakdown(),
            worker_loads=np.zeros(4),
            pruning=None,
            peak_memory_bytes=0,
        )
        with pytest.raises(RuntimeError):
            report.mean_latency
        with pytest.raises(RuntimeError):
            report.latency_percentile(50)


class TestHeterogeneousCluster:
    def test_per_worker_rates(self):
        from repro.cluster.cluster import Cluster

        cluster = Cluster(3, compute_rate=[1e9, 2e9, 4e9])
        rates = [w.compute_rate for w in cluster.workers]
        assert rates == [1e9, 2e9, 4e9]

    def test_rate_count_mismatch_raises(self):
        from repro.cluster.cluster import Cluster

        with pytest.raises(ValueError, match="compute rates"):
            Cluster(3, compute_rate=[1e9, 2e9])

    def test_straggler_hurts_naive_more_than_adaptive(
        self, medium_data, medium_queries
    ):
        """Failure injection: one worker at quarter speed. The adaptive
        dimension-order scheduler shifts that machine's slice to late
        pipeline positions (where pruning has shrunk the work), so it
        must beat the load-oblivious schedule."""
        from repro.cluster.cluster import Cluster
        from repro.core.config import HarmonyConfig, Mode

        rates = [1e9, 1e9, 1e9, 0.25e9]

        def qps(load_balance):
            config = HarmonyConfig(
                n_machines=4,
                nlist=16,
                nprobe=8,
                mode=Mode.DIMENSION,
                enable_load_balance=load_balance,
                enable_pipeline=True,
                seed=0,
            )
            db = HarmonyDB(
                dim=48,
                config=config,
                cluster=Cluster(4, compute_rate=rates),
            )
            db.build(medium_data, sample_queries=medium_queries)
            _, report = db.search(medium_queries, k=5)
            return report.qps

        assert qps(True) > qps(False)

    def test_straggler_results_still_exact(self, tiny_data, tiny_queries):
        from repro.cluster.cluster import Cluster
        from repro.index.ivf import IVFFlatIndex

        ref = IVFFlatIndex(dim=32, nlist=16, seed=0)
        ref.train(tiny_data)
        ref.add(tiny_data)
        _, ref_ids = ref.search(tiny_queries, k=5, nprobe=4)
        db = HarmonyDB(
            dim=32,
            config=HarmonyConfig(n_machines=4, nlist=16, nprobe=4),
            cluster=Cluster(4, compute_rate=[1e9, 1e9, 1e9, 1e8]),
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        result, _ = db.search(tiny_queries, k=5)
        np.testing.assert_array_equal(result.ids, ref_ids)
