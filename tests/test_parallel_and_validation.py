"""Tests for ThreadBackend, validation utilities, report export."""

import numpy as np
import pytest

from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB
from repro.core.executor.threads import ThreadBackend
from repro.core.partition import build_plan
from repro.validation import check_exactness


class TestThreadBackend:
    def test_matches_reference_ivf(self, trained_index, tiny_queries):
        searcher = ThreadBackend(trained_index)
        result = searcher.search(tiny_queries, k=5, nprobe=4)
        ref_d, ref_i = trained_index.search(tiny_queries, k=5, nprobe=4)
        np.testing.assert_array_equal(result.ids, ref_i)
        np.testing.assert_allclose(result.distances, ref_d, rtol=1e-9)

    @pytest.mark.parametrize("n_threads", [1, 2, 8])
    def test_deterministic_across_thread_counts(
        self, trained_index, tiny_queries, n_threads
    ):
        single = ThreadBackend(trained_index, n_threads=1).search(
            tiny_queries, k=5, nprobe=4
        )
        multi = ThreadBackend(trained_index, n_threads=n_threads).search(
            tiny_queries, k=5, nprobe=4
        )
        np.testing.assert_array_equal(single.ids, multi.ids)

    def test_custom_plan(self, trained_index, tiny_queries):
        plan = build_plan(trained_index, 4, 2, 2)
        searcher = ThreadBackend(trained_index, plan=plan)
        result = searcher.search(tiny_queries, k=5, nprobe=4)
        _, ref_i = trained_index.search(tiny_queries, k=5, nprobe=4)
        np.testing.assert_array_equal(result.ids, ref_i)

    def test_pruning_off_same_results(self, trained_index, tiny_queries):
        on = ThreadBackend(trained_index, enable_pruning=True)
        off = ThreadBackend(trained_index, enable_pruning=False)
        r_on = on.search(tiny_queries, k=5, nprobe=4)
        r_off = off.search(tiny_queries, k=5, nprobe=4)
        np.testing.assert_array_equal(r_on.ids, r_off.ids)

    def test_respects_deletes(self, tiny_data, tiny_queries):
        from repro.index.ivf import IVFFlatIndex

        index = IVFFlatIndex(dim=32, nlist=16, seed=0)
        index.train(tiny_data)
        index.add(tiny_data)
        _, first = index.search(tiny_queries, k=5, nprobe=16)
        victims = np.unique(first[first >= 0])[:10]
        index.remove_ids(victims)
        searcher = ThreadBackend(index)
        result = searcher.search(tiny_queries, k=5, nprobe=16)
        assert not (set(result.ids[result.ids >= 0]) & set(victims))

    def test_untrained_raises(self):
        from repro.index.ivf import IVFFlatIndex

        with pytest.raises(RuntimeError, match="trained"):
            ThreadBackend(IVFFlatIndex(dim=8, nlist=4))

    def test_invalid_params(self, trained_index):
        with pytest.raises(ValueError):
            ThreadBackend(trained_index, n_threads=0)
        with pytest.raises(ValueError):
            ThreadBackend(trained_index, prewarm_size=-1)
        with pytest.raises(ValueError, match="k must be positive"):
            ThreadBackend(trained_index).search(np.ones((1, 32)), k=0)


class TestCheckExactness:
    @pytest.fixture()
    def db(self, tiny_data, tiny_queries):
        db = HarmonyDB(
            dim=32, config=HarmonyConfig(n_machines=4, nlist=16, nprobe=4)
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        return db

    def test_built_db_is_exact(self, db, tiny_queries):
        report = check_exactness(db, tiny_queries, k=5)
        assert report.exact
        assert bool(report)
        assert report.mismatched_queries == ()
        assert report.n_queries == len(tiny_queries)

    @pytest.mark.parametrize(
        "mode", [Mode.HARMONY, Mode.VECTOR, Mode.DIMENSION]
    )
    def test_all_modes_exact(self, tiny_data, tiny_queries, mode):
        db = HarmonyDB(
            dim=32,
            config=HarmonyConfig(n_machines=4, nlist=16, nprobe=4, mode=mode),
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        assert check_exactness(db, tiny_queries, k=5).exact

    def test_unbuilt_raises(self):
        with pytest.raises(RuntimeError, match="build"):
            check_exactness(HarmonyDB(dim=8), np.ones((1, 8)))

    def test_nprobe_override(self, db, tiny_queries):
        report = check_exactness(db, tiny_queries, k=5, nprobe=16)
        assert report.exact


class TestReportExport:
    @pytest.fixture()
    def report(self, tiny_data, tiny_queries):
        db = HarmonyDB(
            dim=32,
            config=HarmonyConfig(
                n_machines=4, nlist=16, nprobe=4, mode=Mode.DIMENSION
            ),
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        _, report = db.search(tiny_queries, k=5)
        return report

    def test_to_dict_is_json_serializable(self, report):
        import json

        payload = json.dumps(report.to_dict())
        decoded = json.loads(payload)
        assert decoded["n_queries"] == report.n_queries
        assert decoded["qps"] == pytest.approx(report.qps)

    def test_to_dict_includes_latency_and_pruning(self, report):
        data = report.to_dict()
        assert "latency" in data
        assert data["latency"]["p50"] <= data["latency"]["p99"]
        assert "pruning_ratios" in data
        assert len(data["pruning_ratios"]) == 4

    def test_worker_utilization_bounds(self, report):
        util = report.worker_utilization()
        assert util.shape == report.worker_loads.shape
        assert np.all(util >= 0)
        assert np.all(util <= 1.0 + 1e-9)
