"""Streaming updates: ingest, delete, tune, persist.

A living vector database keeps changing: new embeddings stream in,
stale ones are deleted, the recall target dictates the probe budget,
and the deployment must survive restarts. This example walks the full
lifecycle on one HARMONY deployment.

Run:  python examples/streaming_updates.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import HarmonyConfig, HarmonyDB
from repro.core.capacity import tune_nprobe
from repro.data import load_dataset
from repro.workload import poisson_arrivals


def main() -> None:
    dataset = load_dataset("deep1m", size=6000, n_queries=100, seed=11)
    db = HarmonyDB(
        dim=dataset.dim, config=HarmonyConfig(n_machines=4, nlist=64, nprobe=8)
    )
    db.build(dataset.base, sample_queries=dataset.queries)
    print(f"built: {db.ntotal:,} vectors, plan = {db.plan.describe()}")

    # --- streaming ingest ------------------------------------------------
    new_batch = load_dataset("deep1m", size=500, n_queries=1, seed=99).base
    db.add(new_batch)
    print(f"ingested 500 new vectors -> {db.ntotal:,} stored")

    # --- deletion ---------------------------------------------------------
    result, _ = db.search(dataset.queries[:5], k=10)
    stale = np.unique(result.ids[result.ids >= 0])[:25]
    removed = db.remove(stale)
    print(f"deleted {removed} stale vectors; they can never be returned")
    after, _ = db.search(dataset.queries[:5], k=10)
    assert not (set(after.ids.ravel()) & set(stale))

    # --- recall-driven tuning ----------------------------------------------
    tuned = tune_nprobe(db.index, dataset.queries, target_recall=0.95)
    print(
        f"nprobe for recall>=0.95: {tuned.nprobe} "
        f"(measured recall {tuned.achieved_recall:.3f})"
    )

    # --- serving at the tuned operating point -------------------------------
    _, closed = db.search(dataset.queries, k=10, nprobe=tuned.nprobe)
    arrivals = poisson_arrivals(
        dataset.n_queries, closed.qps * 0.7, seed=12
    )
    _, open_loop = db.search(
        dataset.queries, k=10, nprobe=tuned.nprobe, arrival_times=arrivals
    )
    print(
        f"at 70% load: mean latency "
        f"{open_loop.mean_latency * 1e6:.0f} us, "
        f"p99 {open_loop.latency_percentile(99) * 1e6:.0f} us"
    )

    # --- persistence ---------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "deployment.npz"
        db.save(path)
        restored = HarmonyDB.load(path)
        check, _ = restored.search(dataset.queries[:5], k=10)
        assert np.array_equal(check.ids, after.ids)
        print(f"saved + restored from {path.name}: results identical")


if __name__ == "__main__":
    main()
