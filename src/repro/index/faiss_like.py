"""Single-node baseline engine ("Faiss" in the paper's evaluation).

The paper compares HARMONY against Faiss IVF-Flat running on one node
(Section 6.1). :class:`FaissLikeIVF` wraps :class:`IVFFlatIndex` with
per-query operation counting, and :meth:`SearchCost.simulated_seconds`
charges the same simulated compute rate to the baseline as to
HARMONY's workers, making throughput ratios meaningful. That method is
the baseline's one price: :func:`simulated_faiss_seconds` and the
benchmarks' shared-index baseline both read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distance.metrics import Metric
from repro.index.ivf import IVFFlatIndex


@dataclass(frozen=True)
class SearchCost:
    """Work performed by one search call, in simulator units.

    Attributes:
        centroid_elements: elements processed while ranking centroids.
        scan_elements: elements processed scanning inverted lists.
        candidates: total candidate vectors scored.
    """

    centroid_elements: int
    scan_elements: int
    candidates: int

    def simulated_seconds(self, compute_rate: float | None = None) -> float:
        """Simulated single-node time of this work.

        The baseline runs on one machine with no communication. Its
        scan work is priced at the (scale-derated) worker rate
        Harmony's workers use, while centroid ranking — whose cost does
        not scale with dataset size — is priced at the physical rate,
        mirroring how the Harmony client is modeled. See
        ``repro.cluster.node``.
        """
        from repro.cluster.node import (
            DEFAULT_COMPUTE_RATE,
            PHYSICAL_COMPUTE_RATE,
        )

        rate = compute_rate if compute_rate is not None else DEFAULT_COMPUTE_RATE
        return (
            self.scan_elements / rate
            + self.centroid_elements / PHYSICAL_COMPUTE_RATE
        )


def search_cost(
    index: IVFFlatIndex, queries: np.ndarray, nprobe: int
) -> SearchCost:
    """The work an IVF-Flat search of ``queries`` at ``nprobe`` does."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    probes = index.probe(queries, nprobe)
    candidates = int(
        sum(index.candidates(probes[i]).size for i in range(len(probes)))
    )
    return SearchCost(
        centroid_elements=queries.shape[0] * index.nlist * index.dim,
        scan_elements=candidates * index.dim,
        candidates=candidates,
    )


class FaissLikeIVF:
    """Single-node IVF-Flat engine with cost accounting.

    Mirrors the Faiss usage in the paper: ``train`` -> ``add`` ->
    ``search(k, nprobe)``. The underlying index object is shared with
    the distributed engines so that every strategy searches exactly the
    same clustering.
    """

    def __init__(
        self,
        dim: int,
        nlist: int,
        metric: "Metric | str" = Metric.L2,
        seed: int = 0,
    ) -> None:
        self.index = IVFFlatIndex(dim=dim, nlist=nlist, metric=metric, seed=seed)
        self._last_cost: SearchCost | None = None

    @property
    def dim(self) -> int:
        return self.index.dim

    @property
    def nlist(self) -> int:
        return self.index.nlist

    @property
    def ntotal(self) -> int:
        return self.index.ntotal

    def train(self, data: np.ndarray) -> None:
        self.index.train(data)

    def add(self, vectors: np.ndarray) -> None:
        self.index.add(vectors)

    def search(
        self, queries: np.ndarray, k: int, nprobe: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """IVF search that also records a :class:`SearchCost`."""
        self._last_cost = search_cost(self.index, queries, nprobe)
        return self.index.search(queries, k=k, nprobe=nprobe)

    @property
    def last_search_cost(self) -> SearchCost:
        """Cost of the most recent :meth:`search` call."""
        if self._last_cost is None:
            raise RuntimeError("no search has been performed yet")
        return self._last_cost

    def memory_report(self) -> dict[str, int]:
        return self.index.memory_report()


def simulated_faiss_seconds(
    engine: FaissLikeIVF, compute_rate: float | None = None
) -> float:
    """Simulated single-node time of the last Faiss-like search."""
    return engine.last_search_cost.simulated_seconds(compute_rate)
