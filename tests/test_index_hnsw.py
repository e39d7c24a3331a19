"""Unit tests for the HNSW graph index."""

import numpy as np
import pytest

from repro.data.ground_truth import recall_at_k
from repro.data.synthetic import gaussian_blobs, uniform_gaussian
from repro.index.flat import FlatIndex
from repro.index.hnsw import HNSWIndex


@pytest.fixture(scope="module")
def corpus():
    data = gaussian_blobs(900, 24, n_blobs=6, cluster_std=0.5, seed=4)
    return data[:800], data[800:850]


@pytest.fixture(scope="module")
def index(corpus):
    base, _ = corpus
    ix = HNSWIndex(dim=24, m=12, ef_construction=80, seed=0)
    ix.add(base)
    return ix


@pytest.fixture(scope="module")
def ground_truth(corpus):
    base, queries = corpus
    flat = FlatIndex(dim=24)
    flat.add(base)
    _, ids = flat.search(queries, k=10)
    return ids


class TestConstruction:
    def test_params_validated(self):
        with pytest.raises(ValueError):
            HNSWIndex(dim=0)
        with pytest.raises(ValueError):
            HNSWIndex(dim=8, m=1)
        with pytest.raises(ValueError):
            HNSWIndex(dim=8, m=16, ef_construction=4)

    def test_ntotal(self, index, corpus):
        assert index.ntotal == len(corpus[0])

    def test_dim_mismatch_raises(self, index):
        with pytest.raises(ValueError, match="expected dim"):
            index.add(np.ones((2, 7)))

    def test_layer0_covers_all_nodes(self, index):
        for node in range(index.ntotal):
            index.neighbors(node, level=0)  # must not raise

    def test_degree_bounded(self, index):
        for node in range(index.ntotal):
            assert len(index.neighbors(node, 0)) <= 2 * index.m
        if index.max_level >= 1:
            for node in index._adjacency[1]:
                assert len(index.neighbors(node, 1)) <= index.m + 1

    def test_edges_reference_valid_nodes(self, index):
        for level in range(index.max_level + 1):
            for node, links in index._adjacency[level].items():
                assert 0 <= node < index.ntotal
                assert all(0 <= n < index.ntotal for n in links)
                assert node not in links

    def test_memory_report(self, index):
        report = index.memory_report()
        assert report["base_vectors"] == index.ntotal * 24 * 4
        assert report["adjacency"] > 0
        assert report["total"] == (
            report["base_vectors"] + report["adjacency"]
        )


class TestSearch:
    def test_empty_raises(self):
        with pytest.raises(RuntimeError, match="empty"):
            HNSWIndex(dim=4).search(np.ones(4), k=1)

    def test_param_validation(self, index, corpus):
        _, queries = corpus
        with pytest.raises(ValueError, match="k must be positive"):
            index.search(queries, k=0)
        with pytest.raises(ValueError, match="ef_search"):
            index.search(queries, k=10, ef_search=5)

    def test_finds_exact_match(self, index, corpus):
        base, _ = corpus
        dist, ids = index.search(base[37], k=1, ef_search=32)
        assert ids[0, 0] == 37
        assert dist[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_recall_reasonable(self, index, corpus, ground_truth):
        _, queries = corpus
        _, ids = index.search(queries, k=10, ef_search=64)
        assert recall_at_k(ids, ground_truth) > 0.8

    def test_recall_improves_with_ef(self, index, corpus, ground_truth):
        _, queries = corpus
        recalls = []
        for ef in (10, 40, 160):
            _, ids = index.search(queries, k=10, ef_search=ef)
            recalls.append(recall_at_k(ids, ground_truth))
        assert recalls[0] <= recalls[1] + 0.02
        assert recalls[1] <= recalls[2] + 0.02
        assert recalls[-1] > 0.9

    def test_distances_ascending(self, index, corpus):
        _, queries = corpus
        dist, _ = index.search(queries, k=10, ef_search=40)
        finite = np.isfinite(dist)
        for row, mask in zip(dist, finite):
            vals = row[mask]
            assert np.all(np.diff(vals) >= 0)

    def test_deterministic(self, corpus):
        base, queries = corpus
        a = HNSWIndex(dim=24, m=12, ef_construction=80, seed=7)
        b = HNSWIndex(dim=24, m=12, ef_construction=80, seed=7)
        a.add(base)
        b.add(base)
        _, ia = a.search(queries, k=5, ef_search=40)
        _, ib = b.search(queries, k=5, ef_search=40)
        np.testing.assert_array_equal(ia, ib)

    def test_inner_product_metric(self):
        base = (uniform_gaussian(300, 16, seed=5) + 1.0).astype(np.float32)
        queries = (uniform_gaussian(320, 16, seed=5) + 1.0)[300:].astype(
            np.float32
        )
        ix = HNSWIndex(dim=16, m=8, ef_construction=40, metric="ip", seed=0)
        ix.add(base)
        _, ids = ix.search(queries, k=5, ef_search=60)
        flat = FlatIndex(dim=16, metric="ip")
        flat.add(base)
        _, truth = flat.search(queries, k=5)
        assert recall_at_k(ids, truth) > 0.6


class TestTrace:
    def test_trace_structure(self, index, corpus):
        _, queries = corpus
        dist, ids, trace = index.search_with_trace(
            queries[0], k=5, ef_search=40
        )
        assert len(ids) == 5
        assert len(trace.visited) > 0
        assert len(set(trace.visited)) == len(trace.visited)
        for u, v in trace.edges:
            assert 0 <= u < index.ntotal
            assert 0 <= v < index.ntotal

    def test_trace_results_match_plain_search(self, index, corpus):
        _, queries = corpus
        plain_d, plain_i = index.search(queries[:1], k=5, ef_search=40)
        dist, ids, _ = index.search_with_trace(
            queries[0], k=5, ef_search=40
        )
        np.testing.assert_array_equal(ids, plain_i[0])
        np.testing.assert_allclose(dist, plain_d[0])

    def test_visited_covers_result_ids(self, index, corpus):
        _, queries = corpus
        _, ids, trace = index.search_with_trace(
            queries[0], k=5, ef_search=40
        )
        assert set(ids[ids >= 0]) <= set(trace.visited)
