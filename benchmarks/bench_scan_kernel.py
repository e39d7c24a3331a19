"""Scan-kernel microbenchmark: per-query vs batched.

Real host wall-clock (like ``bench_backend_overhead``, unlike the
simulated figures) over a synthetic gaussian workload, comparing two
executions of the identical search:

- ``packed_per_query``  — the ``search_one`` loop: packed shard layout
  + compacted ``ShardScan`` (``batch_queries=False``). This is the
  reference the batched path must beat.
- ``batched_serial``    — fused shard-major ``search_batch`` on the
  serial backend. Batches of 8 and 32 queries leave every shard-group
  below the kernel's sharing rule, so it gathers member by member;
  64 and 256 put every group above it, so it reads each probed list
  once (the list-major first slice). Each case records how many of its
  groups went list-major.

Each case is the best of its repeats, the two variants taking turns.
Both must return byte-identical ids and distances (asserted).
Results are saved both as a text table and as machine-readable
``results/BENCH_scan_kernel.json``; ``--smoke`` runs a small workload
— one batch on each side of the rule — and exits non-zero if the
batched path is slower than the per-query path in either (the CI
perf-smoke gate). A smoke run, or the pytest entry, writes nothing.

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
from repro.core.executor import SerialBackend
from repro.core.executor.kernel import _list_major
from repro.core.partition import build_plan
from repro.core.routing import shard_candidate_lists, touched_shards
from repro.index.ivf import IVFFlatIndex

FULL = dict(
    n=100_000, dim=128, nlist=64, nprobe=8, k=10,
    n_shards=4, slice_counts=(4, 8), batches=(8, 32, 64, 256), repeats=3,
)
SMOKE = dict(
    n=15_000, dim=64, nlist=32, nprobe=8, k=10,
    n_shards=2, slice_counts=(4,), batches=(16, 32), repeats=3,
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


def list_major_groups(index, plan, queries, nprobe):
    """``(list-major, all)`` shard-groups of one batch, by the kernel's
    own rule."""
    groups = {}
    for row in index.probe(queries, nprobe):
        for shard in touched_shards(plan, row):
            groups.setdefault(int(shard), []).append(
                shard_candidate_lists(plan, row, shard)
            )
    return sum(map(_list_major, groups.values())), len(groups)


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
        for batch in params["batches"]:
            queries = all_queries[:batch]
            variants = {
                "packed_per_query": per_query,
                "batched_serial": batched,
            }
            # Best of the repeats, the two variants taking turns, so a
            # drift in the machine's pace reaches both alike.
            seconds = dict.fromkeys(variants, float("inf"))
            results = {}
            for _ in range(params["repeats"]):
                for name, backend in variants.items():
                    start = time.perf_counter()
                    results[name] = backend.search(queries, k=k, nprobe=nprobe)
                    seconds[name] = min(
                        seconds[name], time.perf_counter() - start
                    )
            ref = results["packed_per_query"]
            for name, result in results.items():
                assert np.array_equal(result.ids, ref.ids), (
                    f"{name} ids diverge from the per-query path"
                )
                assert np.array_equal(result.distances, ref.distances), (
                    f"{name} distances diverge from the per-query path"
                )
            major, groups = list_major_groups(index, plan, queries, nprobe)
            case = {
                "batch": batch,
                "n_slices": n_slices,
                "n_shards": params["n_shards"],
                "list_major_groups": major,
                "groups": groups,
                "seconds": seconds,
                "speedup_batched_vs_packed_per_query": (
                    seconds["packed_per_query"] / seconds["batched_serial"]
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
                f" vs per-query; {major}/{groups} groups list-major)"
            )
    return cases


def save_outputs(params, cases, smoke):
    """The table; a full run also writes it and the JSON to
    ``results/``. A smoke run's are printed only, so the committed
    full-run files stay what the full run wrote."""
    payload = {
        "workload": {
            key: params[key]
            for key in ("n", "dim", "nlist", "nprobe", "k", "n_shards")
        }
        | {"smoke": smoke},
        "cases": cases,
    }
    rows = [
        [
            case["batch"],
            case["n_slices"],
            f"{case['list_major_groups']}/{case['groups']}",
            round(case["seconds"]["packed_per_query"] * 1e3, 1),
            round(case["seconds"]["batched_serial"] * 1e3, 1),
            round(case["speedup_batched_vs_packed_per_query"], 2),
        ]
        for case in cases
    ]
    text = c.format_table(
        [
            "batch", "slices", "list-major groups", "per-query (ms)",
            "batched (ms)",
            "speedup vs per-query",
        ],
        rows,
        title=(
            "scan kernel: fused batching vs the per-query loop "
            "(host wall-clock, synthetic gaussian)"
        ),
    )
    if not smoke:
        c.save_result(
            "BENCH_scan_kernel.json", json.dumps(payload, indent=2)
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
