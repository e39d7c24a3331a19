"""Fault tolerance: replica failover, exactness under failure.

A production cluster loses machines. With ``replicas=2`` every grid
block lives on two machines, so the engine routes around a failure and
answers stay byte-identical; without replication the loss is surfaced
loudly rather than silently degrading results. The trace of the
failed-over batch shows where its simulated time went and is written
as a Chrome trace (open it in https://ui.perfetto.dev) with one row per
node: the survivors absorb the failed machine's share.

Run:  python examples/fault_tolerance.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import HarmonyConfig, HarmonyDB, Mode
from repro.data import load_dataset


def main() -> None:
    dataset = load_dataset("sift1m", size=8000, n_queries=80, seed=27)
    db = HarmonyDB(
        dim=dataset.dim,
        config=HarmonyConfig(
            n_machines=4, nlist=64, nprobe=8, mode=Mode.VECTOR, replicas=2
        ),
    )
    db.build(dataset.base, sample_queries=dataset.queries)
    reference, healthy = db.search(dataset.queries, k=10)
    print(
        f"healthy 4-node cluster (R=2): {healthy.qps:,.0f} QPS, "
        f"per-node index "
        f"{db.index_memory_report()['mean_machine_bytes'] / 1e6:.2f} MB"
    )

    # --- kill a machine -----------------------------------------------------
    db.cluster.fail_worker(1)
    db.enable_tracing()
    result, degraded = db.search(dataset.queries, k=10)
    assert np.array_equal(result.ids, reference.ids), "failover changed results!"
    print(
        f"\nworker 1 failed -> {degraded.qps:,.0f} QPS "
        f"({degraded.qps / healthy.qps:.0%} of healthy), results identical"
    )
    totals = degraded.trace.category_totals()
    print(
        "  traced, summed over nodes: "
        + ", ".join(f"{c} {s * 1e3:.2f} ms" for c, s in totals.items())
    )
    trace_path = Path(tempfile.gettempdir()) / "harmony-failover-trace.json"
    degraded.trace.save_chrome(trace_path)
    print(f"  chrome trace -> {trace_path}")

    # --- recovery ------------------------------------------------------------
    db.cluster.restore_worker(1)
    _, recovered = db.search(dataset.queries, k=10)
    print(f"\nworker 1 restored -> {recovered.qps:,.0f} QPS")

    # --- and why replication matters ----------------------------------------
    unreplicated = HarmonyDB(
        dim=dataset.dim,
        config=HarmonyConfig(
            n_machines=4, nlist=64, nprobe=8, mode=Mode.VECTOR
        ),
    )
    unreplicated.build(dataset.base, sample_queries=dataset.queries)
    unreplicated.cluster.fail_worker(1)
    try:
        unreplicated.search(dataset.queries, k=10)
    except RuntimeError as exc:
        print(f"\nwithout replicas the same failure is fatal: {exc}")


if __name__ == "__main__":
    main()
