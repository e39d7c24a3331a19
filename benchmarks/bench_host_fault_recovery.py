"""Host fault recovery: supervised worker-pool crash overhead, measured.

The sim twin (``bench_fault_recovery.py``) fails machines of the
simulated cluster; this experiment kills a **real worker process** mid-
batch and measures what supervision costs on the wall clock. A process-
backend deployment serves repeated query windows through three phases:

1. **healthy** — baseline windows on the full pool.
2. **chaos** — a seeded :class:`HostFaultInjector` kills one worker on
   its first task of the window (plus a straggler delay on a survivor).
   The parent must see the death, put the dead worker's task back
   at the front of the line, respawn it, and finish the window
   **byte-identical** to the healthy baseline — without falling back
   to the serial loop.
3. **recovered** — the next windows run on the healed pool; fault
   counters must read zero and results must still match.

Outputs ``results/BENCH_host_fault_recovery.json`` (per-window timeline
+ recovery counters) and ``results/host_fault_recovery.txt``.
``--smoke`` runs one window per phase and exits non-zero if any window
diverges from the baseline, the chaos window fell back, or
no respawn was observed::

    PYTHONPATH=../src python bench_host_fault_recovery.py          # full
    PYTHONPATH=../src python bench_host_fault_recovery.py --smoke  # CI gate
"""

import argparse
import json
import sys
import time

import numpy as np

import _common as c

from repro.cluster.host_faults import DelayScan, HostFaultInjector, KillWorker

DATASET = "sift1m"
N_WORKERS = 2
FULL_WINDOWS_PER_PHASE = 3
SMOKE_WINDOWS_PER_PHASE = 1
FULL_QUERIES = 256
SMOKE_QUERIES = 64


def run_timeline(
    windows_per_phase=FULL_WINDOWS_PER_PHASE,
    n_queries=FULL_QUERIES,
    log=print,
):
    dataset = c.get_dataset(DATASET)
    gt = c.get_ground_truth(DATASET)
    queries = dataset.queries[:n_queries]
    db = c.deploy(
        DATASET, c.Mode.HARMONY, backend="process", n_workers=N_WORKERS
    )

    windows = []
    baseline = {}

    def run_window(phase):
        t0 = time.perf_counter()
        result, report = db.search(queries, k=c.K)
        elapsed = time.perf_counter() - t0
        stats = (
            report.fault_stats.to_dict()
            if report.fault_stats is not None
            else {}
        )
        backend = db._host_backend
        row = {
            "window": len(windows),
            "phase": phase,
            "wall_seconds": elapsed,
            "qps": len(queries) / elapsed,
            "worker_respawns": stats.get("worker_respawns", 0),
            "tasks_requeued": stats.get("tasks_requeued", 0),
            "fallback_active": bool(
                backend is not None and backend.fallback_active
            ),
            "recall_at_k": c.recall_at_k(result.ids, gt[: len(queries)]),
            "matches_baseline": bool(
                "ids" in baseline
                and np.array_equal(result.ids, baseline["ids"])
                and np.array_equal(result.distances, baseline["distances"])
            ),
        }
        windows.append(row)
        log(
            f"  window {row['window']} [{phase:>9}] "
            f"{row['wall_seconds'] * 1e3:>7.1f} ms  "
            f"respawns {row['worker_respawns']}  "
            f"requeued {row['tasks_requeued']}  "
            f"exact {'yes' if row['matches_baseline'] else 'n/a'}"
        )
        return result

    log(
        f"host fault recovery: {DATASET}, process backend, "
        f"{N_WORKERS} workers, {len(queries)} queries/window"
    )
    first = None
    for _ in range(windows_per_phase):
        result = run_window("healthy")
        if first is None:
            first = result
            baseline["ids"] = result.ids.copy()
            baseline["distances"] = result.distances.copy()
            # The first window is its own baseline by construction.
            windows[0]["matches_baseline"] = True

    for i in range(windows_per_phase):
        injector = HostFaultInjector(
            kills=(KillWorker(worker=i % N_WORKERS, at_task=0),),
            delays=(
                DelayScan(seconds=0.002, worker=(i + 1) % N_WORKERS),
            ),
            seed=i,
        )
        db.set_host_faults(injector)
        run_window("chaos")
    db.set_host_faults(None)

    for _ in range(windows_per_phase):
        run_window("recovered")

    healthy = [w for w in windows if w["phase"] == "healthy"]
    chaos = [w for w in windows if w["phase"] == "chaos"]
    recovered = [w for w in windows if w["phase"] == "recovered"]
    healthy_mean = float(np.mean([w["wall_seconds"] for w in healthy]))
    chaos_mean = float(np.mean([w["wall_seconds"] for w in chaos]))
    summary = {
        "healthy_mean_seconds": healthy_mean,
        "chaos_mean_seconds": chaos_mean,
        "recovery_overhead": (
            chaos_mean / healthy_mean if healthy_mean > 0 else float("inf")
        ),
        "total_respawns": sum(w["worker_respawns"] for w in chaos),
        "total_requeued": sum(w["tasks_requeued"] for w in chaos),
        "all_exact": all(w["matches_baseline"] for w in windows),
        "fallback_ever": any(w["fallback_active"] for w in windows),
        "recovered_clean": all(
            w["worker_respawns"] == 0 and w["tasks_requeued"] == 0
            for w in recovered
        ),
    }
    db.close()
    return windows, summary


def save_outputs(windows, summary, smoke):
    payload = {
        "workload": {
            "dataset": DATASET,
            "backend": "process",
            "n_workers": N_WORKERS,
            "nlist": c.NLIST,
            "nprobe": c.NPROBE,
            "k": c.K,
            "smoke": smoke,
        },
        "windows": windows,
        "summary": summary,
    }
    c.save_result(
        "BENCH_host_fault_recovery.json", json.dumps(payload, indent=2)
    )
    rows = [
        [
            w["window"],
            w["phase"],
            round(w["wall_seconds"] * 1e3, 1),
            w["worker_respawns"],
            w["tasks_requeued"],
            "yes" if w["matches_baseline"] else "no",
            "yes" if w["fallback_active"] else "no",
        ]
        for w in windows
    ]
    text = c.format_table(
        [
            "window", "phase", "wall ms", "respawns",
            "requeued", "exact", "fallback",
        ],
        rows,
        title=(
            "host fault recovery: worker killed mid-batch -> requeue + "
            "respawn, byte-exact (wall-clock)"
        ),
    )
    c.save_result("host_fault_recovery.txt", text)
    return text


def check_invariants(windows, summary):
    """The gates CI holds the timeline to. Returns a list of failures."""
    failures = []
    if not summary["all_exact"]:
        failures.append("a window diverged from the healthy baseline")
    if summary["fallback_ever"]:
        failures.append(
            "supervisor fell back to serial on a single-worker crash"
        )
    if summary["total_respawns"] < 1:
        failures.append("no worker respawn observed in the chaos phase")
    if summary["total_requeued"] < 1:
        failures.append("no task requeue observed in the chaos phase")
    if not summary["recovered_clean"]:
        failures.append("recovered phase still shows fault activity")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one window per phase; fail unless every window is byte-"
        "exact, the crash was absorbed without fallback, and "
        "the respawn/requeue counters moved",
    )
    args = parser.parse_args(argv)
    per_phase = (
        SMOKE_WINDOWS_PER_PHASE if args.smoke else FULL_WINDOWS_PER_PHASE
    )
    n_queries = SMOKE_QUERIES if args.smoke else FULL_QUERIES
    windows, summary = run_timeline(
        windows_per_phase=per_phase, n_queries=n_queries
    )
    print("\n" + save_outputs(windows, summary, smoke=args.smoke))
    print(
        f"recovery overhead: chaos windows ran "
        f"{summary['recovery_overhead']:.2f}x the healthy mean "
        f"({summary['total_respawns']} respawn(s), "
        f"{summary['total_requeued']} task(s) requeued)"
    )
    failures = check_invariants(windows, summary)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: crash absorbed on the pool, byte-exact, pool healed")
    return 0


def test_bench_host_fault_recovery(benchmark, capsys):
    """Pytest entry point (smoke timeline) for the benchmark suite."""
    windows, summary = benchmark.pedantic(
        lambda: run_timeline(
            windows_per_phase=SMOKE_WINDOWS_PER_PHASE,
            n_queries=SMOKE_QUERIES,
            log=lambda *_: None,
        ),
        rounds=1,
        iterations=1,
    )
    text = save_outputs(windows, summary, smoke=True)
    with capsys.disabled():
        print("\n" + text)
    assert check_invariants(windows, summary) == []


if __name__ == "__main__":
    sys.exit(main())
