"""The fine-grained cost model (paper Section 4.2.1).

For a candidate partition plan ``pi`` and a workload sample ``Q`` the
model estimates:

- per-query computation and communication cost, split into the
  dimension-based and vector-based components of ``C_q(pi)``,
- per-node load ``Load(n, pi)`` (computation seconds),
- the imbalance factor ``I(pi)`` = standard deviation of node loads,
- the overall objective ``C(pi, Q) = sum_q C_q(pi) + alpha * I(pi)``.

Estimates use only lightweight statistics — inverted-list sizes and the
workload's list-probe frequencies — so planning cost is negligible, as
the paper requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.messages import (
    partial_result_bytes,
    query_chunk_bytes,
    result_set_bytes,
)
from repro.core.partition import PartitionPlan
from repro.index.ivf import IVFFlatIndex


@dataclass(frozen=True)
class CostParameters:
    """Hardware characteristics the model prices work against.

    Attributes:
        compute_rate: fp32 elements per second per worker.
        bandwidth_bytes_per_s: link bandwidth.
        latency_s: per-message latency.
        alpha: imbalance weight in the overall objective.
        message_overlap: fraction of a transfer that consumes sender
            resources. Non-blocking sends overlap with computation, so
            only their injection overhead counts; blocking sends cost
            their full duration.
    """

    compute_rate: float
    bandwidth_bytes_per_s: float
    latency_s: float
    alpha: float = 4.0
    message_overlap: float = 0.1

    @classmethod
    def from_cluster(cls, cluster: Cluster, alpha: float = 4.0) -> "CostParameters":
        """Derive parameters from a simulated cluster's configuration."""
        from repro.cluster.network import NONBLOCKING_SENDER_SHARE, CommMode

        overlap = (
            1.0
            if cluster.network.mode is CommMode.BLOCKING
            else NONBLOCKING_SENDER_SHARE
        )
        return cls(
            compute_rate=cluster.workers[0].compute_rate,
            bandwidth_bytes_per_s=cluster.network.bandwidth_bytes_per_s,
            latency_s=cluster.network.latency_s,
            alpha=alpha,
            message_overlap=overlap,
        )


@dataclass(frozen=True)
class WorkloadProfile:
    """Probe statistics of a (sampled) workload.

    Attributes:
        n_queries: queries in the sample.
        nprobe: probes per query used when profiling.
        probes: ``(n_queries, nprobe)`` probed list ids.
        list_frequency: expected probes per inverted list (counts).
        queries: the sampled query vectors (kept for pruning pilots).
    """

    n_queries: int
    nprobe: int
    probes: np.ndarray
    list_frequency: np.ndarray
    queries: np.ndarray

    @classmethod
    def measure(
        cls, index: IVFFlatIndex, queries: np.ndarray, nprobe: int
    ) -> "WorkloadProfile":
        """Profile a workload sample against a trained index."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        probes = index.probe(queries, nprobe)
        freq = np.bincount(probes.ravel(), minlength=index.nlist).astype(
            np.float64
        )
        return cls(
            n_queries=int(probes.shape[0]),
            nprobe=nprobe,
            probes=probes,
            list_frequency=freq,
            queries=queries,
        )


@dataclass(frozen=True)
class PlanCost:
    """Scored cost of one plan under one workload profile.

    All figures are simulated seconds. ``total`` is the paper's overall
    objective ``C(pi, Q)``.
    """

    computation_seconds: float
    communication_seconds: float
    imbalance_seconds: float
    node_loads: np.ndarray
    alpha: float

    @property
    def total(self) -> float:
        return (
            self.computation_seconds
            + self.communication_seconds
            + self.alpha * self.imbalance_seconds
        )


def estimate_survival(
    index: IVFFlatIndex,
    queries: np.ndarray,
    nprobe: int,
    n_blocks: int,
    k: int = 10,
    prewarm: int = 64,
    max_queries: int = 8,
    max_candidates: int = 4096,
) -> np.ndarray:
    """Pilot measurement of per-position pruning survival.

    Runs a handful of sample queries through a real dimension pipeline
    (canonical slice order, lossless pruning against a prewarmed top-K
    heap) and returns, for each pipeline position ``p``, the average
    fraction of candidates still alive when position ``p`` starts
    (``survival[0]`` is always 1.0). This is how the planner prices the
    compute savings of dimension-including plans without a closed-form
    pruning model — the "lightweight metrics" of Section 4.2.

    L2 metric only (the library's pruning bound for inner product is
    looser; the planner conservatively skips the pilot there).
    """
    from repro.core.executor.kernel import drive_steps
    from repro.core.heap import TopKHeap
    from repro.core.pruning import ShardScan
    from repro.distance.metrics import squared_l2
    from repro.distance.partial import DimensionSlices

    if n_blocks <= 1:
        return np.ones(max(n_blocks, 1), dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    queries = queries[:max_queries]
    slices = DimensionSlices.even(index.dim, n_blocks)
    probes = index.probe(queries, nprobe)
    survival = np.zeros(n_blocks, dtype=np.float64)
    weight = 0.0
    for i in range(queries.shape[0]):
        candidates = index.candidates(probes[i])[:max_candidates]
        if candidates.size == 0:
            continue
        heap = TopKHeap(k)
        warm = candidates[: min(prewarm, candidates.size)]
        warm_scores = squared_l2(index.base[warm], queries[i])
        for cid, score in zip(warm, np.atleast_1d(warm_scores)):
            heap.push(float(score), int(cid))
        scan = ShardScan(
            base=index.base,
            candidate_ids=candidates,
            query=queries[i],
            slices=slices,
        )
        # A position the loop never reaches had nothing alive: it adds 0.
        for position, processed in drive_steps(
            scan, range(n_blocks), lambda: heap.threshold
        ):
            survival[position] += processed / scan.n_candidates
        weight += 1.0
    if weight == 0.0:
        return np.ones(n_blocks, dtype=np.float64)
    return survival / weight


def node_loads(
    plan: PartitionPlan,
    index: IVFFlatIndex,
    profile: WorkloadProfile,
    params: CostParameters,
    survival: np.ndarray | None = None,
) -> np.ndarray:
    """``Load(n, pi)``: expected computation seconds per machine.

    A probed list ``l`` of size ``s_l`` generates ``s_l * width_d``
    elements of scan work in each of its dimension blocks ``d``; the
    machine hosting grid block ``(shard(l), d)`` pays for it. When a
    pruning ``survival`` profile is given (dimension-including plans),
    every machine's load is scaled by the mean survival fraction —
    rotation-staggered scheduling exposes each machine to every
    pipeline position equally.
    """
    sizes = index.list_sizes().astype(np.float64)
    widths = plan.slices.widths()
    loads = np.zeros(plan.n_machines, dtype=np.float64)
    # Expected scanned rows per shard = sum over its lists of freq*size.
    shard_rows = np.zeros(plan.n_vector_shards, dtype=np.float64)
    np.add.at(shard_rows, plan.shard_of_list, profile.list_frequency * sizes)
    for shard in range(plan.n_vector_shards):
        for block in range(plan.n_dim_blocks):
            machine = plan.machine_of(shard, block)
            loads[machine] += shard_rows[shard] * widths[block]
    if survival is not None and plan.n_dim_blocks > 1:
        loads *= float(np.mean(survival))
    return loads / params.compute_rate


def imbalance_factor(loads: np.ndarray) -> float:
    """``I(pi)``: standard deviation of per-node loads."""
    loads = np.asarray(loads, dtype=np.float64)
    if loads.size == 0:
        raise ValueError("loads must be non-empty")
    return float(np.std(loads))


def communication_seconds(
    plan: PartitionPlan,
    index: IVFFlatIndex,
    profile: WorkloadProfile,
    params: CostParameters,
    k: int = 10,
    survival: np.ndarray | None = None,
) -> float:
    """Expected total communication time for the profiled workload.

    Per touched (query, shard) pair the plan exchanges:

    - ``B_dim`` query-chunk messages of ``dim / B_dim`` coordinates,
    - ``B_dim - 1`` inter-stage partial-result messages, sized at the
      shard's candidate count scaled by the pruning ``survival``
      profile when one is available (pruned candidates leave the
      pipeline and are never forwarded), and
    - one final result message back to the client.

    Note the payload bytes match the paper's analysis: chunk bytes are
    invariant in ``B_dim``, but message *count* grows with it, so the
    latency term makes dimension partitioning costlier on the wire.
    """
    sizes = index.list_sizes()
    widths = plan.slices.widths()
    bw = params.bandwidth_bytes_per_s
    lat = params.latency_s
    total = 0.0
    for row in profile.probes:
        shard_candidates: dict[int, int] = {}
        for list_id in row:
            shard = int(plan.shard_of_list[list_id])
            shard_candidates[shard] = shard_candidates.get(shard, 0) + int(
                sizes[list_id]
            )
        for n_candidates in shard_candidates.values():
            for width in widths:
                total += lat + query_chunk_bytes(width) / bw
            for stage in range(plan.n_dim_blocks - 1):
                forwarded = n_candidates
                if survival is not None and stage + 1 < len(survival):
                    forwarded = int(n_candidates * survival[stage + 1])
                total += lat + partial_result_bytes(forwarded) / bw
            total += lat + result_set_bytes(k) / bw
    return total * params.message_overlap


def plan_cost(
    plan: PartitionPlan,
    index: IVFFlatIndex,
    profile: WorkloadProfile,
    params: CostParameters,
    k: int = 10,
    survival: np.ndarray | None = None,
) -> PlanCost:
    """Evaluate the overall objective ``C(pi, Q)`` for one plan."""
    loads = node_loads(plan, index, profile, params, survival=survival)
    return PlanCost(
        computation_seconds=float(loads.sum()),
        communication_seconds=communication_seconds(
            plan, index, profile, params, k=k, survival=survival
        ),
        imbalance_seconds=imbalance_factor(loads),
        node_loads=loads,
        alpha=params.alpha,
    )
