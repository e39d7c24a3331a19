"""Capacity planning: size a deployment for a recall and QPS target.

Operations teams ask the inverse of the benchmark question: not "how
fast is this cluster" but "how many machines do I need for R recall at
Q queries/second". :func:`plan_capacity` answers it by composing the
library's existing pieces — :func:`tune_nprobe` fixes the recall
knob (the smallest probed-cluster count reaching the target on a
calibration sample, against exact ground truth), then simulated
deployments over increasing machine counts find the smallest cluster
whose measured throughput meets the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB
from repro.data.ground_truth import exact_knn, recall_at_k
from repro.index.ivf import IVFFlatIndex


@dataclass(frozen=True)
class TuneResult:
    """Outcome of an nprobe calibration.

    Attributes:
        nprobe: smallest candidate meeting the target (the largest
            candidate when none does).
        achieved_recall: measured recall at that nprobe.
        target_met: whether the target was reached.
        trace: every (nprobe, recall) pair measured, ascending.
    """

    nprobe: int
    achieved_recall: float
    target_met: bool
    trace: tuple[tuple[int, float], ...]


def tune_nprobe(
    index: IVFFlatIndex,
    queries: np.ndarray,
    target_recall: float,
    k: int = 10,
    candidates: "tuple[int, ...] | list[int] | None" = None,
) -> TuneResult:
    """Find the smallest ``nprobe`` reaching ``target_recall``.

    Args:
        index: trained+populated IVF index.
        queries: calibration queries (a few dozen suffice).
        target_recall: recall@k target in ``(0, 1]``.
        k: neighbours per query.
        candidates: ascending nprobe values to try (default: powers of
            two up to ``nlist``).

    Raises:
        ValueError: for an empty candidate list or bad target.
        RuntimeError: if the index is not ready.
    """
    if not 0.0 < target_recall <= 1.0:
        raise ValueError(
            f"target_recall must be in (0, 1], got {target_recall}"
        )
    if not index.is_trained or index.ntotal == 0:
        raise RuntimeError("index must be trained and populated")
    if candidates is None:
        candidates = []
        nprobe = 1
        while nprobe < index.nlist:
            candidates.append(nprobe)
            nprobe *= 2
        candidates.append(index.nlist)
    candidates = sorted(set(int(c) for c in candidates))
    if not candidates:
        raise ValueError("candidates must be non-empty")

    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    live = np.flatnonzero(~index.is_deleted(np.arange(index.ntotal)))
    _, truth_local = exact_knn(
        index.base[live], queries, k=k, metric=index.metric
    )
    truth = live[truth_local]

    trace: list[tuple[int, float]] = []
    for nprobe in candidates:
        _, ids = index.search(queries, k=k, nprobe=nprobe)
        recall = recall_at_k(ids, truth)
        trace.append((nprobe, recall))
        if recall >= target_recall:
            return TuneResult(
                nprobe=nprobe,
                achieved_recall=recall,
                target_met=True,
                trace=tuple(trace),
            )
    nprobe, recall = trace[-1]
    return TuneResult(
        nprobe=nprobe,
        achieved_recall=recall,
        target_met=False,
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class CapacityPlan:
    """Outcome of capacity planning.

    Attributes:
        n_machines: smallest machine count meeting the QPS target (the
            largest candidate when none does).
        nprobe: operating point chosen for the recall target.
        achieved_recall: measured recall at that nprobe.
        achieved_qps: simulated throughput at the chosen size.
        target_met: whether both targets were satisfied.
        plan_summary: the partition grid the cost model chose.
        trace: every (n_machines, qps) measured, ascending.
    """

    n_machines: int
    nprobe: int
    achieved_recall: float
    achieved_qps: float
    target_met: bool
    plan_summary: str
    trace: tuple[tuple[int, float], ...]


def plan_capacity(
    index: IVFFlatIndex,
    queries: np.ndarray,
    target_recall: float,
    target_qps: float,
    k: int = 10,
    machine_candidates: "tuple[int, ...] | list[int] | None" = None,
    mode: "Mode | str" = Mode.HARMONY,
    seed: int = 0,
) -> CapacityPlan:
    """Find the smallest cluster meeting a recall + QPS target.

    Args:
        index: trained+populated IVF index over the (sampled) corpus.
        queries: calibration query sample.
        target_recall: recall@k target in ``(0, 1]``.
        target_qps: simulated queries/second target.
        k: neighbours per query.
        machine_candidates: ascending machine counts to try
            (default ``(2, 4, 8, 16)``).
        mode: partitioning mode for the sized deployments.
        seed: deployment seed.

    Raises:
        ValueError: for bad targets or empty candidates.
        RuntimeError: if the index is not ready.
    """
    if target_qps <= 0:
        raise ValueError(f"target_qps must be positive, got {target_qps}")
    if machine_candidates is None:
        machine_candidates = (2, 4, 8, 16)
    candidates = sorted(set(int(m) for m in machine_candidates))
    if not candidates or candidates[0] <= 0:
        raise ValueError("machine_candidates must be positive and non-empty")

    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    tuned = tune_nprobe(index, queries, target_recall=target_recall, k=k)

    trace: list[tuple[int, float]] = []
    chosen: tuple[int, float, str] | None = None
    for n_machines in candidates:
        config = HarmonyConfig(
            n_machines=n_machines,
            nlist=index.nlist,
            nprobe=tuned.nprobe,
            metric=index.metric,
            mode=mode,  # type: ignore[arg-type]
            seed=seed,
        )
        db = HarmonyDB.from_trained_index(
            index,
            config=config,
            cluster=Cluster(n_machines),
            sample_queries=queries,
            k=k,
        )
        _, report = db.search(queries, k=k)
        trace.append((n_machines, report.qps))
        if chosen is None and report.qps >= target_qps:
            chosen = (n_machines, report.qps, db.plan.describe())
            break
        chosen_fallback = (n_machines, report.qps, db.plan.describe())
    if chosen is None:
        chosen = chosen_fallback
    n_machines, qps, summary = chosen
    return CapacityPlan(
        n_machines=n_machines,
        nprobe=tuned.nprobe,
        achieved_recall=tuned.achieved_recall,
        achieved_qps=qps,
        target_met=tuned.target_met and qps >= target_qps,
        plan_summary=summary,
        trace=tuple(trace),
    )
