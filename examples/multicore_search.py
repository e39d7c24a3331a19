"""Multicore search and re-planning for a shifted workload.

Two capabilities beyond the simulated cluster:

1. :class:`ProcessBackend` executes HARMONY's pruned search for real
   on a pool of worker processes over a shared-memory layout — identical
   results to the distributed engine, real wall-clock timing (scaling
   depends on the cores the host has).
2. ``HarmonyDB.replan`` re-runs the cost model on a sample of the live
   traffic and redistributes the blocks when that traffic has turned
   hot, with the same answers before and after.

Run:  python examples/multicore_search.py
"""

import time

import numpy as np

from repro import HarmonyConfig, HarmonyDB
from repro.core.executor import ProcessBackend
from repro.data import load_dataset
from repro.workload import skewed_workload


def main() -> None:
    dataset = load_dataset("sift1m", size=20_000, n_queries=400, seed=17)
    # Start pinned to a vector grid — the configuration a deployment
    # might have chosen for yesterday's uniform traffic.
    db = HarmonyDB(
        dim=dataset.dim,
        config=HarmonyConfig(
            n_machines=4, nlist=64, nprobe=8, forced_grid=(4, 1)
        ),
    )
    db.build(dataset.base, sample_queries=dataset.queries[:64])
    index = db.index

    # --- real multicore execution -----------------------------------------
    _, reference_ids = index.search(dataset.queries, k=10, nprobe=8)
    for n_workers in (1, 2):
        with ProcessBackend(index, n_workers=n_workers) as searcher:
            searcher.search(dataset.queries[:1], k=10, nprobe=8)  # spawn
            start = time.perf_counter()
            result = searcher.search(dataset.queries, k=10, nprobe=8)
            elapsed = time.perf_counter() - start
        assert np.array_equal(result.ids, reference_ids)
        print(
            f"{n_workers} worker process(es): {elapsed * 1e3:7.1f} ms wall "
            f"for {dataset.n_queries} queries (results exact vs reference)"
        )

    # --- re-planning for hot traffic ---------------------------------------
    print(f"\ninitial plan: {db.plan.describe()}")
    hot = skewed_workload(
        dataset.queries, index, 128, skew=1.0, nprobe=8,
        n_hot_lists=1, seed=18,
    )
    before_result, before = db.search(hot.queries, k=10)
    # Yesterday's pin no longer applies; let the cost model choose from
    # a sample of today's traffic.
    db.config.forced_grid = None
    db.replan(hot.queries[:64])
    after_result, after = db.search(hot.queries, k=10)
    assert np.array_equal(before_result.ids, after_result.ids)
    print(
        f"live traffic turned hot: re-planned to {db.plan.describe()}\n"
        f"  QPS {before.qps:,.0f} -> {after.qps:,.0f} (same answers)"
    )


if __name__ == "__main__":
    main()
