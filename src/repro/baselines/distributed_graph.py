"""Distributed graph-index baseline: the strawman the paper rules out.

Paper Section 1: "the popular graph-based segmentation in standalone
machines is not well compatible with distributed features, as query
paths for vectors tend to introduce edges across machines, resulting in
high latency."

This baseline makes that argument quantitative. It partitions an HNSW
graph's nodes across machines (by k-means region, the best case for
locality), then replays each query's hop trace: every traversed edge
whose endpoints live on different machines becomes a sequential network
round trip, because graph search is an inherently serial walk — the
next hop's neighbourhood is known only after the previous vertex's
machine answers. Compute is charged per visited vertex on its machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import CLIENT_NODE, Cluster
from repro.cluster.messages import MESSAGE_HEADER_BYTES, query_chunk_bytes
from repro.core.results import SearchResult
from repro.index.hnsw import HNSWIndex
from repro.index.kmeans import KMeans


@dataclass
class GraphSearchReport:
    """Hop statistics plus simulated timing of a distributed graph search.

    Attributes:
        n_queries: batch size.
        simulated_seconds: makespan on the simulated cluster.
        total_hops: traversed edges across the batch.
        cross_machine_hops: edges whose endpoints live on different
            machines (each one a sequential round trip).
        visited_vertices: distance computations performed.
    """

    n_queries: int
    simulated_seconds: float
    total_hops: int
    cross_machine_hops: int
    visited_vertices: int

    @property
    def qps(self) -> float:
        if self.simulated_seconds <= 0:
            return float("inf")
        return self.n_queries / self.simulated_seconds

    @property
    def cross_machine_fraction(self) -> float:
        if self.total_hops == 0:
            return 0.0
        return self.cross_machine_hops / self.total_hops


class DistributedGraphANN:
    """HNSW sharded across machines by spatial (k-means) regions.

    Args:
        dim: vector dimensionality.
        n_machines: machines the graph is partitioned over.
        m / ef_construction: HNSW parameters.
        cluster: simulated cluster (a default one is created if None).
        seed: construction seed.
    """

    def __init__(
        self,
        dim: int,
        n_machines: int = 4,
        m: int = 16,
        ef_construction: int = 100,
        cluster: Cluster | None = None,
        seed: int = 0,
    ) -> None:
        if n_machines <= 0:
            raise ValueError(f"n_machines must be positive, got {n_machines}")
        self.graph = HNSWIndex(
            dim=dim, m=m, ef_construction=ef_construction, seed=seed
        )
        self.n_machines = n_machines
        self.cluster = cluster or Cluster(n_workers=n_machines)
        self.seed = seed
        self._machine_of: np.ndarray | None = None

    def build(self, base: np.ndarray) -> None:
        """Insert the vectors and partition the graph spatially.

        K-means regions give the partition its best chance: nodes that
        are close (and therefore densely connected) land on the same
        machine. The measured cross-machine hop fraction is thus a
        *lower bound* on what naive graph sharding would see.
        """
        base = np.atleast_2d(np.asarray(base, dtype=np.float32))
        self.graph.add(base)
        self._split()

    def _split(self) -> None:
        kmeans = KMeans(n_clusters=self.n_machines, seed=self.seed)
        result = kmeans.fit(self.graph.base)
        self._machine_of = result.assignments % self.n_machines

    def machine_of(self, node: int) -> int:
        if self._machine_of is None:
            raise RuntimeError("build() must be called first")
        return int(self._machine_of[node])

    def search(
        self, queries: np.ndarray, k: int, ef_search: int = 64
    ) -> tuple[SearchResult, GraphSearchReport]:
        """Distributed beam search with per-hop communication charges.

        Every cross-machine hop costs a request/response round trip on
        the network (header-sized control plus the query residing with
        the walk); per-vertex distance computations are charged to the
        vertex's machine.
        """
        if self._machine_of is None:
            raise RuntimeError("build() must be called first")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        cluster = self.cluster
        cluster.reset_time()
        dim = self.graph.dim

        nq = queries.shape[0]
        out_dist = np.full((nq, k), np.inf, dtype=np.float64)
        out_ids = np.full((nq, k), -1, dtype=np.int64)
        total_hops = 0
        cross_hops = 0
        visited_total = 0

        for i in range(nq):
            dist, ids, trace = self.graph.search_with_trace(
                queries[i], k=k, ef_search=ef_search
            )
            out_dist[i, : len(dist)] = dist
            out_ids[i, : len(ids)] = ids
            total_hops += len(trace.edges)
            visited_total += len(trace.visited)

            # The walk starts at the entry point's machine: the client
            # ships the query there.
            current_machine = self.machine_of(trace.visited[0])
            t = cluster.transfer(
                CLIENT_NODE,
                current_machine,
                query_chunk_bytes(dim),
            )
            # Replay: visits charge compute on their machine; machine
            # changes charge a sequential round trip (the query state
            # migrates, then the answer unblocks the walk).
            for u, v in trace.edges:
                mu, mv = self.machine_of(u), self.machine_of(v)
                _, t = cluster.compute(mu, dim, earliest=t)
                if mv != mu:
                    cross_hops += 1
                    t = cluster.transfer(
                        mu, mv, query_chunk_bytes(dim), earliest=t
                    )
            # Results return to the client.
            t = cluster.transfer(
                self.machine_of(trace.edges[-1][1]) if trace.edges else current_machine,
                CLIENT_NODE,
                MESSAGE_HEADER_BYTES + k * 16,
                earliest=t,
            )

        report = GraphSearchReport(
            n_queries=nq,
            simulated_seconds=cluster.makespan(),
            total_hops=total_hops,
            cross_machine_hops=cross_hops,
            visited_vertices=visited_total,
        )
        return SearchResult(distances=out_dist, ids=out_ids), report
