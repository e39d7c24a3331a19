"""Multicore search and live drift adaptation.

Two capabilities beyond the simulated cluster:

1. :class:`ThreadBackend` executes HARMONY's pruned search for real
   on host threads — identical results to the distributed engine, real
   wall-clock timing (thread scaling depends on per-query numpy work).
2. :class:`DriftMonitor` watches live traffic and re-plans the
   deployment when the active partition becomes imbalanced.

Run:  python examples/multicore_search.py
"""

import time

import numpy as np

from repro import HarmonyConfig, HarmonyDB, ThreadBackend
from repro.core.monitor import DriftMonitor
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
    for n_threads in (1, 4):
        searcher = ThreadBackend(index, n_threads=n_threads)
        start = time.perf_counter()
        result = searcher.search(dataset.queries, k=10, nprobe=8)
        elapsed = time.perf_counter() - start
        assert np.array_equal(result.ids, reference_ids)
        print(
            f"{n_threads} thread(s): {elapsed * 1e3:7.1f} ms wall for "
            f"{dataset.n_queries} queries (results exact vs reference)"
        )

    # --- live drift adaptation ----------------------------------------------
    print(f"\ninitial plan: {db.plan.describe()}")
    print("live traffic turns hot:")
    monitor = DriftMonitor(
        db, window=128, min_observations=64, imbalance_threshold=0.2
    )
    hot = skewed_workload(
        dataset.queries, index, 128, skew=1.0, nprobe=8,
        n_hot_lists=1, seed=18,
    )
    _, before = db.search(hot.queries, k=10)
    monitor.observe(hot.queries)
    status = monitor.status()
    print(
        f"  estimated plan imbalance on live window: {status.imbalance:.2f} "
        f"(drifted={status.drifted})"
    )
    # Yesterday's pin no longer applies; let the cost model choose.
    db.config.forced_grid = None
    if monitor.maybe_replan():
        _, after = db.search(hot.queries, k=10)
        print(
            f"  re-planned to {db.plan.describe()}\n"
            f"  QPS {before.qps:,.0f} -> {after.qps:,.0f}"
        )
    else:
        print("  current plan already handles this workload")


if __name__ == "__main__":
    main()
