"""Integration tests: whole-system behaviours from the paper.

These exercise the full stack (data -> index -> planner -> engine ->
reports) and assert the *qualitative* results of the evaluation
section at a miniature scale.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.network import CommMode, NetworkModel
from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB
from repro.data.ground_truth import exact_knn, recall_at_k
from repro.data.synthetic import gaussian_blobs
from repro.workload.generators import skewed_workload


@pytest.fixture(scope="module")
def data():
    return gaussian_blobs(2000, 64, n_blobs=16, cluster_std=0.5, seed=2)


@pytest.fixture(scope="module")
def queries():
    return gaussian_blobs(2100, 64, n_blobs=16, cluster_std=0.5, seed=2)[2000:]


def build(data, queries, mode, **overrides):
    config = HarmonyConfig(
        n_machines=4, nlist=16, nprobe=4, mode=mode, seed=0, **overrides
    )
    db = HarmonyDB(dim=64, config=config, cluster=Cluster(4))
    db.build(data, sample_queries=queries)
    return db


class TestExactnessAcrossTheBoard:
    def test_all_modes_all_flags_identical_results(self, data, queries):
        from repro.index.ivf import IVFFlatIndex

        ref = IVFFlatIndex(dim=64, nlist=16, seed=0)
        ref.train(data)
        ref.add(data)
        _, ref_ids = ref.search(queries, k=10, nprobe=4)
        for mode in (Mode.HARMONY, Mode.VECTOR, Mode.DIMENSION):
            for flags in (
                {},
                {"enable_pruning": False},
                {"enable_pipeline": False},
                {"enable_load_balance": False},
                {"prewarm_size": 0},
            ):
                db = build(data, queries, mode, **flags)
                result, _ = db.search(queries, k=10)
                np.testing.assert_array_equal(
                    result.ids, ref_ids, err_msg=f"{mode} {flags}"
                )

    def test_recall_against_ground_truth(self, data, queries):
        _, gt = exact_knn(data, queries, k=10)
        db = build(data, queries, Mode.HARMONY)
        result, _ = db.search(queries, k=10)
        assert recall_at_k(result.ids, gt) > 0.7


class TestPaperShapes:
    def test_distributed_beats_single_node(self, data, queries):
        """Fig 6 shape: 4-node deployments beat the 1-node baseline."""
        from repro.index.faiss_like import (
            FaissLikeIVF,
            simulated_faiss_seconds,
        )

        db = build(data, queries, Mode.HARMONY)
        _, report = db.search(queries, k=10)

        baseline = FaissLikeIVF(dim=64, nlist=16, seed=0)
        baseline.train(data)
        baseline.add(data)
        baseline.search(queries, k=10, nprobe=4)
        faiss_seconds = simulated_faiss_seconds(baseline)
        speedup = faiss_seconds / report.simulated_seconds
        assert speedup > 2.0

    def test_vector_degrades_under_skew_harmony_does_not(self, data, queries):
        """Fig 7 shape: skew raises vector-partition imbalance and
        Harmony out-throughputs vector under a skewed workload."""
        from repro.core.partition import build_plan
        from repro.index.ivf import IVFFlatIndex

        probe_index = IVFFlatIndex(dim=64, nlist=16, seed=0)
        probe_index.train(data)
        probe_index.add(data)
        ref_plan = build_plan(probe_index, 4, 4, 1)
        # Target the shard that is already the naturally hottest so the
        # injected skew compounds rather than rebalances.
        sizes = probe_index.list_sizes().astype(float)
        from repro.workload.skew import cluster_histogram

        hist = cluster_histogram(probe_index, queries, nprobe=4)
        shard_mass = np.array(
            [
                (sizes * hist)[ref_plan.lists_of_shard(s)].sum()
                for s in range(4)
            ]
        )
        hot = ref_plan.lists_of_shard(int(np.argmax(shard_mass)))

        def run(mode, skew):
            workload = skewed_workload(
                queries,
                probe_index,
                80,
                skew=skew,
                nprobe=4,
                hot_list_ids=hot,
                seed=3,
            )
            db = build(data, workload.queries, mode)
            _, report = db.search(workload.queries, k=10)
            return report

        vec_balanced = run(Mode.VECTOR, 0.0)
        vec_skewed = run(Mode.VECTOR, 1.0)
        harmony_skewed = run(Mode.HARMONY, 1.0)
        assert (
            vec_skewed.normalized_imbalance
            > vec_balanced.normalized_imbalance
        )
        assert vec_skewed.qps < vec_balanced.qps
        assert harmony_skewed.qps > vec_skewed.qps * 1.2

    def test_vector_has_lowest_communication(self, data, queries):
        """Fig 2(b)/8 shape: vector partitioning communicates least."""
        comm = {}
        for mode in (Mode.VECTOR, Mode.DIMENSION):
            db = build(data, queries, mode)
            _, report = db.search(queries, k=10)
            comm[mode] = report.breakdown.communication
        assert comm[Mode.VECTOR] < comm[Mode.DIMENSION]

    def test_blocking_mode_slower(self, data, queries):
        """Fig 2(b): blocking communication hurts end-to-end time."""
        results = {}
        for mode in (CommMode.NONBLOCKING, CommMode.BLOCKING):
            config = HarmonyConfig(
                n_machines=4, nlist=16, nprobe=4, mode=Mode.DIMENSION, seed=0
            )
            cluster = Cluster(4, network=NetworkModel(mode=mode))
            db = HarmonyDB(dim=64, config=config, cluster=cluster)
            db.build(data, sample_queries=queries)
            _, report = db.search(queries, k=10)
            results[mode] = report.simulated_seconds
        assert results[CommMode.BLOCKING] > results[CommMode.NONBLOCKING]

    def test_ablation_flags_each_cost_throughput(self, data, queries):
        """Fig 9 shape: disabling any optimization reduces QPS."""
        def harmony_qps(**flags):
            db = build(data, queries, Mode.HARMONY, **flags)
            _, report = db.search(queries, k=10)
            return report.qps

        full = harmony_qps()
        assert harmony_qps(enable_pruning=False, prewarm_size=0) < full
        assert harmony_qps(enable_pipeline=False) < full

    def test_scalability_4_to_8_nodes(self):
        """Fig 11(b) shape: more nodes, more throughput.

        Needs enough per-query scan work that compute (not per-query
        client overhead) dominates, as at the paper's full scale.
        """
        data = gaussian_blobs(4000, 64, n_blobs=16, cluster_std=0.5, seed=2)
        queries = gaussian_blobs(
            4060, 64, n_blobs=16, cluster_std=0.5, seed=2
        )[4000:]

        def qps(n):
            config = HarmonyConfig(
                n_machines=n, nlist=16, nprobe=12, mode=Mode.HARMONY, seed=0
            )
            db = HarmonyDB(dim=64, config=config, cluster=Cluster(n))
            db.build(data, sample_queries=queries)
            _, report = db.search(queries, k=10)
            return report.qps

        assert qps(8) > qps(4)


class TestCosineEndToEnd:
    def test_cosine_matches_reference(self, data, queries):
        from repro.index.ivf import IVFFlatIndex

        ref = IVFFlatIndex(dim=64, nlist=16, metric="cosine", seed=0)
        ref.train(data)
        ref.add(data)
        _, ref_ids = ref.search(queries[:40], k=5, nprobe=4)
        db = HarmonyDB(
            dim=64,
            config=HarmonyConfig(
                n_machines=4,
                nlist=16,
                nprobe=4,
                metric="cosine",
                mode=Mode.DIMENSION,
                seed=0,
            ),
        )
        db.build(data, sample_queries=queries)
        result, _ = db.search(queries[:40], k=5)
        np.testing.assert_array_equal(result.ids, ref_ids)
