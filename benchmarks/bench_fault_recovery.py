"""Fault-recovery timeline: QPS, latency, and coverage across a crash.

The paper's evaluation never kills a node; this extension experiment
does. A replicated HARMONY deployment (R=2, ``degraded_mode`` on)
serves repeated query windows while the driver walks the cluster
through a scripted fault timeline:

1. **healthy** — baseline windows.
2. **degraded** — both holders of one grid block crash before the
   failure detector fires, so searches skip the dead shard and return
   partial results with explicit per-query coverage.
3. **re-replicated** — one machine returns and the recovery manager
   re-copies every under-replicated block from survivors to the
   least-loaded live machines, charging the simulated transfers;
   coverage returns to 1.0 while one machine is still down.
4. **restored** — the last machine returns, repair-era extra copies
   are trimmed, and results must again match the healthy run
   byte-for-byte.

The full run writes ``results/BENCH_fault_recovery.json`` (per-window
timeline + recovery events) and ``results/fault_recovery.txt``.
``--smoke`` (and the pytest entry) runs one window per phase, prints
the table without touching those files, and exits non-zero if coverage
after recovery is below 1.0 or the restored phase diverges from the
healthy baseline::

    PYTHONPATH=../src python bench_fault_recovery.py          # full
    PYTHONPATH=../src python bench_fault_recovery.py --smoke  # CI gate
"""

import argparse
import json
import sys

import numpy as np

import _common as c

DATASET = "sift1m"
FULL_WINDOWS_PER_PHASE = 2
SMOKE_WINDOWS_PER_PHASE = 1


def run_timeline(windows_per_phase=FULL_WINDOWS_PER_PHASE, log=print):
    dataset = c.get_dataset(DATASET)
    gt = c.get_ground_truth(DATASET)
    db = c.deploy(DATASET, c.Mode.HARMONY, replicas=2, degraded_mode=True)
    manager = db.enable_fault_recovery()

    windows = []
    events = []
    clock = 0.0
    baseline = {}

    def run_phase(phase):
        nonlocal clock
        for _ in range(windows_per_phase):
            result, report = db.search(dataset.queries, k=c.K)
            degraded = report.degraded
            row = {
                "window": len(windows),
                "phase": phase,
                "t_start": clock,
                "qps": report.qps,
                "mean_latency_ms": float(np.mean(report.latencies)) * 1e3,
                "p99_latency_ms": float(
                    np.percentile(report.latencies, 99)
                ) * 1e3,
                "mean_coverage": degraded.mean_coverage,
                "min_coverage": degraded.min_coverage,
                "degraded_queries": degraded.n_degraded_queries,
                "recall_vs_healthy": degraded.recall_vs_healthy,
                "recall_at_k": c.recall_at_k(result.ids, gt),
            }
            windows.append(row)
            clock += report.simulated_seconds
            log(
                f"  window {row['window']} [{phase:>13}] "
                f"QPS {row['qps']:>8.0f}  coverage "
                f"{row['min_coverage']:.2f}..{row['mean_coverage']:.2f}  "
                f"recall {row['recall_at_k']:.3f}"
            )
        return result

    log(f"fault-recovery timeline: {DATASET}, R=2, degraded_mode on")
    healthy = run_phase("healthy")
    baseline["ids"] = healthy.ids.copy()
    baseline["distances"] = healthy.distances.copy()

    # Both holders of grid block (0, 0) crash inside one detection
    # window: the block has zero live copies, so its shard goes dark.
    victims = [int(m) for m in manager.directory.holders(0, 0)]
    for node in victims:
        lost = manager.mark_failed(node)
        events.append(
            {"t": clock, "event": "crash", "node": node, "stranded": len(lost)}
        )
    log(
        f"  crash: nodes {victims} down, "
        f"{len(manager.directory.lost_blocks())} block(s) unavailable"
    )
    run_phase("degraded")

    # The failure detector fires as the second victim returns: its data
    # closes the coverage hole, and every block left under-replicated
    # by the still-dead first victim is re-copied from survivors.
    restore_report = manager.restore(victims[1], now=clock)
    events.append({"t": clock, **restore_report.to_dict()})
    repair_report = manager.repair(now=clock)
    events.append({"t": clock, **repair_report.to_dict()})
    clock = max(clock, repair_report.completed_at)
    log(
        f"  repair: {repair_report.blocks_copied} block(s), "
        f"{repair_report.bytes_copied:,} bytes, time-to-full-redundancy "
        f"{repair_report.time_to_full_redundancy * 1e3:.2f} ms"
    )
    run_phase("re-replicated")

    rebalance_report = manager.restore(victims[0], now=clock)
    events.append({"t": clock, **rebalance_report.to_dict()})
    log(
        f"  restore: node {victims[0]} back, "
        f"{rebalance_report.blocks_trimmed} extra cop(ies) trimmed"
    )
    restored = run_phase("restored")

    summary = {
        "victims": victims,
        "healthy_qps": windows[0]["qps"],
        "degraded_min_coverage": min(
            w["min_coverage"] for w in windows if w["phase"] == "degraded"
        ),
        "final_min_coverage": min(
            w["min_coverage"] for w in windows if w["phase"] == "restored"
        ),
        "recovered_min_coverage": min(
            w["min_coverage"] for w in windows if w["phase"] == "re-replicated"
        ),
        "time_to_full_redundancy_s": repair_report.time_to_full_redundancy,
        "repair_bytes": manager.total_repair_bytes(),
        "restored_matches_healthy": bool(
            np.array_equal(restored.ids, baseline["ids"])
            and np.array_equal(restored.distances, baseline["distances"])
        ),
    }
    return windows, events, summary


def save_outputs(windows, events, summary, smoke):
    """The timeline table; a full run also writes it and the JSON to
    ``results/``. A smoke timeline is printed only, so the committed
    full-run files stay what the full run wrote."""
    payload = {
        "workload": {
            "dataset": DATASET,
            "n_machines": 4,
            "replicas": 2,
            "nlist": c.NLIST,
            "nprobe": c.NPROBE,
            "k": c.K,
            "smoke": smoke,
        },
        "windows": windows,
        "events": events,
        "summary": summary,
    }
    rows = [
        [
            w["window"],
            w["phase"],
            round(w["qps"]),
            round(w["mean_latency_ms"], 2),
            round(w["min_coverage"], 3),
            round(w["mean_coverage"], 3),
            round(w["recall_at_k"], 3),
        ]
        for w in windows
    ]
    text = c.format_table(
        [
            "window", "phase", "QPS", "mean latency (ms)",
            "min coverage", "mean coverage", f"recall@{c.K}",
        ],
        rows,
        title=(
            "fault-recovery timeline: crash -> degraded -> "
            "re-replicated -> restored (simulated)"
        ),
    )
    if not smoke:
        c.save_result(
            "BENCH_fault_recovery.json", json.dumps(payload, indent=2)
        )
        c.save_result("fault_recovery.txt", text)
    return text


def check_invariants(windows, summary):
    """The gates CI holds the timeline to. Returns a list of failures."""
    failures = []
    if summary["degraded_min_coverage"] >= 1.0:
        failures.append("degraded phase never lost coverage")
    if summary["recovered_min_coverage"] < 1.0:
        failures.append(
            "coverage below 1.0 after re-replication: "
            f"{summary['recovered_min_coverage']:.3f}"
        )
    if summary["final_min_coverage"] < 1.0:
        failures.append(
            "coverage below 1.0 after full restore: "
            f"{summary['final_min_coverage']:.3f}"
        )
    if not summary["restored_matches_healthy"]:
        failures.append("restored results diverge from the healthy run")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one window per phase; fail unless recovery restores "
        "coverage 1.0 and the restored phase matches healthy",
    )
    args = parser.parse_args(argv)
    per_phase = SMOKE_WINDOWS_PER_PHASE if args.smoke else FULL_WINDOWS_PER_PHASE
    windows, events, summary = run_timeline(windows_per_phase=per_phase)
    print("\n" + save_outputs(windows, events, summary, smoke=args.smoke))
    print(
        f"time to full redundancy: "
        f"{summary['time_to_full_redundancy_s'] * 1e3:.2f} ms simulated, "
        f"{summary['repair_bytes']:,} bytes re-replicated"
    )
    failures = check_invariants(windows, summary)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: degraded phase flagged, recovery restored full coverage")
    return 0


def test_bench_fault_recovery(benchmark, capsys):
    """Pytest entry point (smoke timeline) for the benchmark suite."""
    windows, events, summary = benchmark.pedantic(
        lambda: run_timeline(
            windows_per_phase=SMOKE_WINDOWS_PER_PHASE, log=lambda *_: None
        ),
        rounds=1,
        iterations=1,
    )
    text = save_outputs(windows, events, summary, smoke=True)
    with capsys.disabled():
        print("\n" + text)
    assert check_invariants(windows, summary) == []


if __name__ == "__main__":
    sys.exit(main())
