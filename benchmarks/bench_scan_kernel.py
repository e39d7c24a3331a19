"""Scan-kernel microbenchmark: per-query vs batched.

Real host wall-clock (like ``bench_backend_overhead``, unlike the
simulated figures) over a synthetic gaussian workload, comparing three
executions of the identical search:

- ``packed_per_query``  — the ``search_one`` loop: packed shard layout
  + compacted ``ShardScan`` (``batch_queries=False``). This is the
  reference the batched path must beat.
- ``batched_serial``    — fused shard-major ``search_batch`` on the
  serial backend.
- ``batched_thread``    — the same, with shard-groups fanned out over
  host threads.

All three must return byte-identical ids and distances (asserted).
Results are saved both as a text table and as machine-readable
``results/BENCH_scan_kernel.json``; ``--smoke`` runs a small workload
and exits non-zero if the batched path is slower than the per-query
path (the CI perf-smoke gate).

Usage::

    PYTHONPATH=../src python bench_scan_kernel.py            # full
    PYTHONPATH=../src python bench_scan_kernel.py --smoke    # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

import _common as c
from repro.core.executor import SerialBackend, ThreadBackend
from repro.core.partition import build_plan
from repro.index.ivf import IVFFlatIndex

FULL = dict(
    n=100_000, dim=128, nlist=64, nprobe=8, k=10,
    n_shards=4, slice_counts=(4, 8), batches=(16, 64, 256), repeats=3,
)
SMOKE = dict(
    n=15_000, dim=64, nlist=32, nprobe=8, k=10,
    n_shards=2, slice_counts=(4,), batches=(32,), repeats=2,
)


def build_workload(params, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((params["n"], params["dim"]))
    base = base.astype(np.float32)
    queries = rng.standard_normal((max(params["batches"]), params["dim"]))
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


def run_suite(params, log=print):
    index, all_queries = build_workload(params)
    nprobe, k = params["nprobe"], params["k"]
    cases = []
    for n_slices in params["slice_counts"]:
        plan = build_plan(
            index,
            n_machines=params["n_shards"] * n_slices,
            n_vector_shards=params["n_shards"],
            n_dim_blocks=n_slices,
        )
        per_query = SerialBackend(index, plan=plan, batch_queries=False)
        batched = SerialBackend(index, plan=plan, batch_queries=True)
        threaded = ThreadBackend(
            index, plan=plan, n_threads=params["n_shards"],
            batch_queries=True,
        )
        for batch in params["batches"]:
            queries = all_queries[:batch]
            seconds = {}
            ref = None
            variants = {
                "packed_per_query": per_query,
                "batched_serial": batched,
                "batched_thread": threaded,
            }
            for name, backend in variants.items():
                seconds[name], result = _best_of(
                    lambda b=backend: b.search(queries, k=k, nprobe=nprobe),
                    params["repeats"],
                )
                if ref is None:
                    ref = result
                assert np.array_equal(result.ids, ref.ids), (
                    f"{name} ids diverge from the per-query path"
                )
                assert np.array_equal(result.distances, ref.distances), (
                    f"{name} distances diverge from the per-query path"
                )
            best_batched = min(
                seconds["batched_serial"], seconds["batched_thread"]
            )
            case = {
                "batch": batch,
                "n_slices": n_slices,
                "n_shards": params["n_shards"],
                "seconds": seconds,
                "speedup_batched_vs_packed_per_query": (
                    seconds["packed_per_query"] / best_batched
                ),
            }
            cases.append(case)
            log(
                f"  batch {batch:4d} x {n_slices} slices: "
                + "  ".join(
                    f"{name} {sec * 1e3:8.1f} ms"
                    for name, sec in seconds.items()
                )
                + "  (batched "
                f"{case['speedup_batched_vs_packed_per_query']:.2f}x"
                " vs per-query)"
            )
    return cases


def save_outputs(params, cases, smoke):
    payload = {
        "workload": {
            key: params[key]
            for key in ("n", "dim", "nlist", "nprobe", "k", "n_shards")
        }
        | {"smoke": smoke},
        "cases": cases,
    }
    c.save_result("BENCH_scan_kernel.json", json.dumps(payload, indent=2))
    rows = [
        [
            case["batch"],
            case["n_slices"],
            round(case["seconds"]["packed_per_query"] * 1e3, 1),
            round(case["seconds"]["batched_serial"] * 1e3, 1),
            round(case["seconds"]["batched_thread"] * 1e3, 1),
            round(case["speedup_batched_vs_packed_per_query"], 2),
        ]
        for case in cases
    ]
    text = c.format_table(
        [
            "batch", "slices", "per-query (ms)", "batched (ms)",
            "threaded (ms)", "speedup vs per-query",
        ],
        rows,
        title=(
            "scan kernel: fused batching vs the per-query loop "
            "(host wall-clock, synthetic gaussian)"
        ),
    )
    c.save_result("scan_kernel.txt", text)
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload; fail if batched is slower than per-query",
    )
    args = parser.parse_args(argv)
    params = SMOKE if args.smoke else FULL
    label = "smoke" if args.smoke else "full"
    print(
        f"scan-kernel benchmark ({label}): {params['n']:,} x "
        f"{params['dim']}, nlist {params['nlist']}, nprobe "
        f"{params['nprobe']}"
    )
    cases = run_suite(params)
    print("\n" + save_outputs(params, cases, smoke=args.smoke))
    if args.smoke:
        slow = [
            case
            for case in cases
            if case["speedup_batched_vs_packed_per_query"] < 1.0
        ]
        if slow:
            print(
                "FAIL: batched path slower than the per-query "
                f"path in {len(slow)} case(s)"
            )
            return 1
        print("OK: batched path beats the per-query path")
    return 0


def test_bench_scan_kernel(benchmark, capsys):
    """Pytest entry point (smoke workload) for the benchmark suite."""
    cases = benchmark.pedantic(
        lambda: run_suite(SMOKE, log=lambda *_: None), rounds=1, iterations=1
    )
    text = save_outputs(SMOKE, cases, smoke=True)
    with capsys.disabled():
        print("\n" + text)
    for case in cases:
        assert case["speedup_batched_vs_packed_per_query"] >= 1.0, case


if __name__ == "__main__":
    sys.exit(main())
