"""Unit tests for repro.core.database (HarmonyDB facade)."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB


class TestLifecycle:
    def test_search_before_build_raises(self):
        db = HarmonyDB(dim=8)
        with pytest.raises(RuntimeError, match="build"):
            db.search(np.ones((1, 8)))

    def test_plan_before_build_raises(self):
        with pytest.raises(RuntimeError, match="build"):
            HarmonyDB(dim=8).plan

    def test_replan_before_build_raises(self):
        with pytest.raises(RuntimeError, match="build"):
            HarmonyDB(dim=8).replan(np.ones((1, 8)))

    def test_build_returns_report(self, tiny_data, tiny_queries, db_factory):
        db = db_factory(tiny_data, tiny_queries)
        assert db.is_built
        assert db.ntotal == len(tiny_data)

    def test_cluster_too_small_raises(self):
        with pytest.raises(ValueError, match="cluster has 2 workers"):
            HarmonyDB(
                dim=8,
                config=HarmonyConfig(n_machines=4),
                cluster=Cluster(2),
            )

    def test_default_cluster_created(self, tiny_data):
        db = HarmonyDB(dim=32, config=HarmonyConfig(n_machines=3, nlist=8))
        assert db.cluster.n_workers == 3


class TestBuildReport:
    def test_stage_times_positive(self, tiny_data, tiny_queries):
        db = HarmonyDB(dim=32, config=HarmonyConfig(n_machines=4, nlist=8))
        report = db.build(tiny_data, sample_queries=tiny_queries)
        assert report.train_seconds > 0
        assert report.add_seconds > 0
        assert report.preassign_seconds > 0

    def test_placement_in_report(self, tiny_data, tiny_queries):
        db = HarmonyDB(dim=32, config=HarmonyConfig(n_machines=4, nlist=8))
        report = db.build(tiny_data, sample_queries=tiny_queries)
        assert report.placement.max_machine_bytes > 0
        assert len(report.placement.per_machine_bytes) == 4


class TestModes:
    def test_vector_mode_plan(self, tiny_data, tiny_queries, db_factory):
        db = db_factory(tiny_data, tiny_queries, mode=Mode.VECTOR)
        assert db.plan.kind == "vector"
        assert db.mode() is Mode.VECTOR

    def test_dimension_mode_plan(self, tiny_data, tiny_queries, db_factory):
        db = db_factory(tiny_data, tiny_queries, mode=Mode.DIMENSION)
        assert db.plan.kind == "dimension"

    def test_harmony_mode_evaluates_shapes(
        self, tiny_data, tiny_queries, db_factory
    ):
        db = db_factory(tiny_data, tiny_queries, mode=Mode.HARMONY)
        assert len(db.plan_decision.evaluated) == 3  # (1,4) (2,2) (4,1)

    @pytest.mark.parametrize(
        "mode", [Mode.HARMONY, Mode.VECTOR, Mode.DIMENSION]
    )
    def test_all_modes_match_reference_ivf(
        self, tiny_data, tiny_queries, db_factory, mode
    ):
        """The paper-critical invariant: results identical across modes."""
        from repro.index.ivf import IVFFlatIndex

        ref = IVFFlatIndex(dim=32, nlist=16, seed=0)
        ref.train(tiny_data)
        ref.add(tiny_data)
        ref_d, ref_i = ref.search(tiny_queries, k=5, nprobe=4)
        db = db_factory(tiny_data, tiny_queries, mode=mode)
        result, _ = db.search(tiny_queries, k=5)
        np.testing.assert_array_equal(result.ids, ref_i)
        np.testing.assert_allclose(result.distances, ref_d, rtol=1e-9)


class TestSearch:
    def test_nprobe_override(self, tiny_data, tiny_queries, db_factory):
        # Simulated-cost assertion: nprobe monotonicity only holds for
        # deterministic simulated seconds, not host wall-clock.
        db = db_factory(tiny_data, tiny_queries, backend="sim")
        _, low = db.search(tiny_queries, k=5, nprobe=1)
        _, high = db.search(tiny_queries, k=5, nprobe=8)
        assert high.nprobe == 8
        assert low.nprobe == 1
        assert high.breakdown.computation > low.breakdown.computation

    def test_report_qps_consistent(self, tiny_data, tiny_queries, db_factory):
        db = db_factory(tiny_data, tiny_queries)
        _, report = db.search(tiny_queries, k=5)
        assert report.qps == pytest.approx(
            report.n_queries / report.simulated_seconds
        )

    def test_deterministic_across_calls(
        self, tiny_data, tiny_queries, db_factory
    ):
        # Timing determinism is a simulated-clock property.
        db = db_factory(tiny_data, tiny_queries, backend="sim")
        r1, rep1 = db.search(tiny_queries, k=5)
        r2, rep2 = db.search(tiny_queries, k=5)
        np.testing.assert_array_equal(r1.ids, r2.ids)
        assert rep1.simulated_seconds == pytest.approx(rep2.simulated_seconds)


class TestReplan:
    def test_replan_changes_with_workload(self, medium_data, medium_queries):
        from repro.index.ivf import IVFFlatIndex
        from repro.workload.generators import skewed_workload

        db = HarmonyDB(
            dim=48, config=HarmonyConfig(n_machines=4, nlist=16, nprobe=4)
        )
        db.build(medium_data, sample_queries=medium_queries)
        first_plan = db.plan.describe()
        skewed = skewed_workload(
            medium_queries, db.index, 60, skew=1.0, nprobe=4, seed=0
        )
        decision = db.replan(skewed.queries)
        assert decision.plan is db.plan
        # Results still exact after replanning.
        ref_d, ref_i = db.index.search(medium_queries[:10], k=5, nprobe=4)
        result, _ = db.search(medium_queries[:10], k=5)
        np.testing.assert_array_equal(result.ids, ref_i)

    def test_replan_releases_old_memory(self, tiny_data, tiny_queries):
        db = HarmonyDB(
            dim=32, config=HarmonyConfig(n_machines=4, nlist=16, nprobe=4)
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        db.search(tiny_queries, k=5)  # opens the executor: blocks placed
        before = sum(w.current_bytes for w in db.cluster.workers)
        assert before > 0
        db.replan(tiny_queries)
        assert all(w.current_bytes == 0 for w in db.cluster.workers)
        db.search(tiny_queries, k=5)
        after = sum(w.current_bytes for w in db.cluster.workers)
        assert after == pytest.approx(before, rel=0.2)


class TestMemoryReport:
    def test_memory_report_fields(self, tiny_data, tiny_queries, db_factory):
        db = db_factory(tiny_data, tiny_queries)
        report = db.index_memory_report()
        assert report["single_node_total"] > 0
        assert report["max_machine_bytes"] > 0
        assert len(report["per_machine"]) == 4

    def test_distributed_fraction_of_single_node(
        self, tiny_data, tiny_queries, db_factory
    ):
        """Each machine holds roughly 1/N of the single-node index
        (paper Table 4: 'about 1/4 of the space of Faiss')."""
        db = db_factory(tiny_data, tiny_queries, mode=Mode.VECTOR)
        report = db.index_memory_report()
        fraction = report["max_machine_bytes"] / report["single_node_total"]
        assert 0.15 < fraction < 0.6
