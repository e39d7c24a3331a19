"""Process-pool scaling: serial vs process at 1/2/4/8 workers.

Real host wall-clock (like ``bench_scan_kernel``, unlike the simulated
figures) over a synthetic gaussian workload. One serial baseline and
one shared-memory process-pool run per worker count; every run must
return byte-identical ids and distances to the serial oracle
(asserted). The process rows also record the shared layout's resident
bytes, so the JSON shows that cross-process traffic is limited to
compact top-k candidate arrays riding a fixed shared-memory layout.

Results accumulate in ``results/BENCH_process_scaling.json`` plus a
text table; a full run quotes the full reading it replaces beside its
own (``previous``, the table's ``before x``). ``--smoke`` runs a small
workload and exits non-zero if the process pool diverges from the
serial oracle or silently fell back to the serial loop (the CI
perf-smoke gate — speedup itself is not gated there, since CI cores
vary). A smoke run, or the pytest entry, writes nothing.

Usage::

    PYTHONPATH=../src python bench_process_scaling.py            # full
    PYTHONPATH=../src python bench_process_scaling.py --smoke    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

import _common as c
from repro.core.executor import ProcessBackend, SerialBackend
from repro.core.partition import build_plan
from repro.index.ivf import IVFFlatIndex

FULL = dict(
    n=100_000, dim=128, nlist=64, nprobe=8, k=10,
    n_shards=8, n_slices=4, batch=256, repeats=3,
    worker_counts=(1, 2, 4, 8),
)
SMOKE = dict(
    n=12_000, dim=64, nlist=32, nprobe=8, k=10,
    n_shards=4, n_slices=4, batch=48, repeats=1,
    worker_counts=(2,),
)


def build_workload(params, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((params["n"], params["dim"]))
    base = base.astype(np.float32)
    queries = rng.standard_normal((params["batch"], params["dim"]))
    queries = queries.astype(np.float32)
    index = IVFFlatIndex(
        dim=params["dim"],
        nlist=params["nlist"],
        seed=0,
        max_iterations=10,
    )
    index.train(base[: min(20_000, params["n"])])
    index.add(base)
    return index, queries


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _check(name, result, ref, failures):
    if not np.array_equal(result.ids, ref.ids) or not np.array_equal(
        result.distances, ref.distances
    ):
        failures.append(f"{name} diverges from the serial oracle")


def run_suite(params, log=print):
    index, queries = build_workload(params)
    nprobe, k = params["nprobe"], params["k"]
    plan = build_plan(
        index,
        n_machines=params["n_shards"] * params["n_slices"],
        n_vector_shards=params["n_shards"],
        n_dim_blocks=params["n_slices"],
    )
    failures: list[str] = []
    serial = SerialBackend(index, plan=plan)
    serial_seconds, ref = _best_of(
        lambda: serial.search(queries, k=k, nprobe=nprobe),
        params["repeats"],
    )
    log(f"  serial baseline: {serial_seconds * 1e3:8.1f} ms")
    rows = []
    for workers in params["worker_counts"]:
        row = {"workers": workers}
        with ProcessBackend(index, plan=plan, n_workers=workers) as process:
            seconds, result = _best_of(
                lambda: process.search(queries, k=k, nprobe=nprobe),
                params["repeats"],
            )
            row["process_fallback"] = process.fallback_active
            row["layout_bytes"] = process.shared_layout_nbytes()
        _check(f"process x{workers}", result, ref, failures)
        if row["process_fallback"]:
            failures.append(
                f"process x{workers} fell back to the serial loop"
            )
        row["process_seconds"] = seconds
        row["process_speedup"] = serial_seconds / row["process_seconds"]
        rows.append(row)
        log(
            f"  {workers} workers: process"
            f" {row['process_seconds']*1e3:8.1f} ms"
            f" ({row['process_speedup']:.2f}x)"
        )
    return serial_seconds, rows, failures


def _previous_reading(smoke):
    """The full reading the results file holds before this run
    replaces it (None for a smoke run, or if it holds none), quoted
    beside the new one."""
    path = c.RESULTS_DIR / "BENCH_process_scaling.json"
    if smoke or not path.exists():
        return None
    old = json.loads(path.read_text())
    return {
        "serial_seconds": old["serial_seconds"],
        "process_speedup": {
            str(row["workers"]): row["process_speedup"]
            for row in old["cases"]
        },
    }


def save_outputs(params, serial_seconds, rows, smoke):
    """The table; a full run also writes it and the JSON to
    ``results/``. A smoke run's are printed only, so the committed
    full-run files stay what the full run wrote."""
    previous = _previous_reading(smoke)
    payload = {
        "workload": {
            key: params[key]
            for key in (
                "n", "dim", "nlist", "nprobe", "k",
                "n_shards", "n_slices", "batch",
            )
        }
        | {"smoke": smoke, "cpu_count": os.cpu_count()},
        "serial_seconds": serial_seconds,
        "cases": rows,
    }
    if previous is not None:
        payload["previous"] = previous
    before = previous["process_speedup"] if previous else {}
    title = (
        f"process-pool scaling vs serial "
        f"({serial_seconds * 1e3:.1f} ms baseline, host wall-clock)"
    )
    if previous:
        title += (
            f"; before x: the previous full reading"
            f" ({previous['serial_seconds'] * 1e3:.1f} ms baseline)"
        )
    table = c.format_table(
        ["workers", "process (ms)", "process x", "before x", "layout (MiB)"],
        [
            [
                row["workers"],
                round(row["process_seconds"] * 1e3, 1),
                round(row["process_speedup"], 2),
                round(before.get(str(row["workers"]), float("nan")), 2),
                round(row["layout_bytes"] / 2**20, 1),
            ]
            for row in rows
        ],
        title=title,
    )
    if not smoke:
        c.save_result(
            "BENCH_process_scaling.json", json.dumps(payload, indent=2)
        )
        c.save_result("process_scaling.txt", table)
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload; fail on divergence or pool fallback",
    )
    args = parser.parse_args(argv)
    params = SMOKE if args.smoke else FULL
    label = "smoke" if args.smoke else "full"
    print(
        f"process-scaling benchmark ({label}): {params['n']:,} x "
        f"{params['dim']}, {params['n_shards']} shards x "
        f"{params['n_slices']} slices, batch {params['batch']}"
    )
    serial_seconds, rows, failures = run_suite(params)
    print("\n" + save_outputs(params, serial_seconds, rows, args.smoke))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    if args.smoke:
        print("OK: the process backend matches the serial oracle")
    return 0


def test_bench_process_scaling(benchmark, capsys):
    """Pytest entry point (smoke workload) for the benchmark suite."""
    serial_seconds, rows, failures = benchmark.pedantic(
        lambda: run_suite(SMOKE, log=lambda *_: None),
        rounds=1,
        iterations=1,
    )
    assert not failures, failures
    with capsys.disabled():
        print(save_outputs(SMOKE, serial_seconds, rows, smoke=True))


if __name__ == "__main__":
    sys.exit(main())
