"""Motivation experiment: why not distribute a graph index?

Quantifies paper Section 1's argument for building HARMONY on
partition-based (IVF) rather than graph-based indexes: "query paths for
vectors tend to introduce edges across machines, resulting in high
latency." We shard an HNSW graph across 4 machines by spatial (k-means)
region — the friendliest possible partition — and measure:

1. the fraction of traversed edges that cross machines (each one a
   sequential round trip, because the walk cannot continue until the
   remote neighbourhood answers), on clustered vs unclustered data;
2. the resulting throughput against Harmony at a matched recall level.
"""

import numpy as np

import _common as c
from repro.baselines.distributed_graph import DistributedGraphANN
from repro.data.synthetic import uniform_gaussian
from repro.index.flat import FlatIndex

SIZE = 4000
N_QUERIES = 40
DIM = 64


def run_case(label: str, combined: np.ndarray):
    base, queries = combined[:SIZE], combined[SIZE : SIZE + N_QUERIES]
    flat = FlatIndex(dim=DIM)
    flat.add(base)
    _, truth = flat.search(queries, k=c.K)

    graph = DistributedGraphANN(
        dim=DIM, n_machines=4, m=12, ef_construction=80, seed=0
    )
    graph.build(base)
    graph_result, graph_report = graph.search(queries, k=c.K, ef_search=64)
    graph_recall = c.recall_at_k(graph_result.ids, truth)

    from repro.core.capacity import tune_nprobe
    from repro.cluster.cluster import Cluster
    from repro.core.config import HarmonyConfig
    from repro.core.database import HarmonyDB

    db = HarmonyDB(
        dim=DIM,
        config=HarmonyConfig(n_machines=4, nlist=c.NLIST, nprobe=c.NPROBE),
        cluster=Cluster(4),
    )
    db.build(base, sample_queries=queries)
    # Match the graph's operating point: pick the nprobe whose recall
    # reaches the graph's (IVF needs deeper probing on unclustered
    # data — the classic trade-off between the index families).
    tuned = tune_nprobe(db.index, queries, target_recall=graph_recall, k=c.K)
    harmony_result, harmony_report = db.search(
        queries, k=c.K, nprobe=tuned.nprobe
    )
    harmony_recall = c.recall_at_k(harmony_result.ids, truth)

    return (
        label,
        round(graph_report.cross_machine_fraction * 100, 1),
        round(graph_report.qps),
        round(graph_recall, 3),
        round(harmony_report.qps),
        round(harmony_recall, 3),
    )


def run_experiment():
    from repro.data.synthetic import gaussian_blobs

    clustered = gaussian_blobs(
        SIZE + N_QUERIES, DIM, n_blobs=16, cluster_std=0.5, seed=41
    )
    uniform = uniform_gaussian(SIZE + N_QUERIES, DIM, seed=41)
    return [
        run_case("clustered", clustered),
        run_case("uniform", uniform),
    ]


def test_graph_vs_partition(benchmark, capsys):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    text = c.format_table(
        [
            "data",
            "cross-machine hops %",
            "graph QPS",
            "graph recall",
            "harmony QPS",
            "harmony recall",
        ],
        rows,
        title="motivation: distributed HNSW vs Harmony (4 machines)",
    )
    c.save_result("graph_vs_partition.txt", text)
    with capsys.disabled():
        print("\n" + text)

    for row in rows:
        # Harmony out-throughputs the sharded graph at comparable recall.
        assert row[4] > row[2]
        assert row[5] >= row[3] - 0.1
    # Unclustered data makes the graph cross machines far more.
    assert rows[1][1] > rows[0][1] * 2
