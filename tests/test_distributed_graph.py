"""Tests for the distributed graph-index baseline."""

import numpy as np
import pytest

from repro.baselines.distributed_graph import DistributedGraphANN
from repro.data.ground_truth import recall_at_k
from repro.data.synthetic import gaussian_blobs, uniform_gaussian
from repro.index.flat import FlatIndex


@pytest.fixture(scope="module")
def corpus():
    data = gaussian_blobs(850, 24, n_blobs=6, cluster_std=0.5, seed=6)
    return data[:800], data[800:830]


@pytest.fixture(scope="module")
def engine(corpus):
    base, _ = corpus
    engine = DistributedGraphANN(
        dim=24, n_machines=4, m=12, ef_construction=60, seed=0
    )
    engine.build(base)
    return engine


class TestConstruction:
    def test_search_before_build_raises(self):
        engine = DistributedGraphANN(dim=8)
        with pytest.raises(RuntimeError, match="build"):
            engine.search(np.ones((1, 8)), k=1)

    def test_invalid_machines(self):
        with pytest.raises(ValueError):
            DistributedGraphANN(dim=8, n_machines=0)

    def test_machine_assignment_complete(self, engine):
        machines = {engine.machine_of(n) for n in range(engine.graph.ntotal)}
        assert machines <= set(range(4))
        assert len(machines) == 4


class TestSearch:
    def test_results_match_single_machine_graph(self, engine, corpus):
        """Distribution changes timing, never results."""
        _, queries = corpus
        result, _ = engine.search(queries, k=5, ef_search=40)
        plain_d, plain_i = engine.graph.search(queries, k=5, ef_search=40)
        np.testing.assert_array_equal(result.ids, plain_i)

    def test_recall(self, engine, corpus):
        base, queries = corpus
        flat = FlatIndex(dim=24)
        flat.add(base)
        _, truth = flat.search(queries, k=5)
        result, _ = engine.search(queries, k=5, ef_search=60)
        assert recall_at_k(result.ids, truth) > 0.75

    def test_report_consistency(self, engine, corpus):
        _, queries = corpus
        _, report = engine.search(queries, k=5, ef_search=40)
        assert report.n_queries == len(queries)
        assert report.simulated_seconds > 0
        assert 0 <= report.cross_machine_hops <= report.total_hops
        assert 0.0 <= report.cross_machine_fraction <= 1.0
        assert report.visited_vertices > 0
        assert report.qps > 0

    def test_uniform_data_crosses_more(self):
        """Without cluster structure, spatial partitioning can't keep
        walks local — the paper's argument in its worst case."""
        def build_and_measure(base, queries):
            engine = DistributedGraphANN(
                dim=16, n_machines=4, m=8, ef_construction=40, seed=0
            )
            engine.build(base)
            _, report = engine.search(queries, k=5, ef_search=40)
            return report.cross_machine_fraction

        blobs = gaussian_blobs(650, 16, n_blobs=4, cluster_std=0.3, seed=7)
        uniform = uniform_gaussian(650, 16, seed=7)
        clustered_frac = build_and_measure(blobs[:600], blobs[600:630])
        uniform_frac = build_and_measure(uniform[:600], uniform[600:630])
        assert uniform_frac > clustered_frac

    def test_more_machines_more_crossings(self, engine, corpus):
        base, queries = corpus
        wider = DistributedGraphANN(
            dim=24, n_machines=8, m=12, ef_construction=60, seed=0
        )
        wider.build(base)
        fractions = [
            e.search(queries, k=5, ef_search=40)[1].cross_machine_fraction
            for e in (engine, wider)
        ]
        assert fractions[1] >= fractions[0]
