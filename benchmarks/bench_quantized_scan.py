"""Quantized-scan benchmark: SQ8 candidate scan vs full fp32 scan.

Real host wall-clock (like ``bench_scan_kernel``) over a synthetic
gaussian workload, comparing the two candidate-scan representations of
the dual-representation packed layout:

- ``fp32`` — the full-width float32 scan (the exactness oracle).
- ``sq8``  — uint8 scalar-quantized codes with error-padded pruning
  bounds, followed by an exact float32 re-rank of the survivors.

Both run on the serial and threaded backends; every sq8 result must be
**byte-identical** (ids and distances) to the fp32 serial oracle — the
padded bounds are lossless and the re-rank is exact, so quantization
only changes what gets pruned early, never what gets returned.

Besides scan time, the benchmark records the scan-layout footprint:
bytes streamed by the candidate scan per representation (fp32 rows vs
uint8 codes + per-slice error/scale overhead). The codes must come in
at least 3x smaller — that ratio is the bandwidth headroom the
simulated contention model charges for.

Results are saved as a text table and machine-readable
``results/BENCH_quantized_scan.json``; ``--smoke`` runs a small
workload and exits non-zero if sq8 exactness or the 3x layout-bytes
gate fails (the CI perf-smoke gate).

Usage::

    PYTHONPATH=../src python bench_quantized_scan.py            # full
    PYTHONPATH=../src python bench_quantized_scan.py --smoke    # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

import _common as c
from repro.core.executor import SerialBackend, ThreadBackend
from repro.core.layout import ShardPackedBase
from repro.core.partition import build_plan
from repro.index.ivf import IVFFlatIndex

MIN_LAYOUT_RATIO = 3.0

FULL = dict(
    n=100_000, dim=128, nlist=64, nprobe=8, k=10,
    n_shards=4, n_slices=8, batches=(64, 256), repeats=3,
)
SMOKE = dict(
    n=15_000, dim=64, nlist=32, nprobe=8, k=10,
    n_shards=2, n_slices=4, batches=(32,), repeats=2,
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


def layout_footprint(index, plan):
    """Scan-layout bytes per representation (codes vs fp32 rows)."""
    packed = ShardPackedBase.build(index, plan, with_codes=True)
    fp32_bytes = int(packed.rows_nbytes)
    sq8_bytes = int(packed.codes_nbytes) + int(packed.code_overhead_nbytes)
    return {
        "fp32_scan_bytes": fp32_bytes,
        "sq8_scan_bytes": sq8_bytes,
        "sq8_code_bytes": int(packed.codes_nbytes),
        "sq8_overhead_bytes": int(packed.code_overhead_nbytes),
        "layout_ratio": fp32_bytes / sq8_bytes,
    }


def run_suite(params, log=print):
    index, all_queries = build_workload(params)
    nprobe, k = params["nprobe"], params["k"]
    plan = build_plan(
        index,
        n_machines=params["n_shards"] * params["n_slices"],
        n_vector_shards=params["n_shards"],
        n_dim_blocks=params["n_slices"],
    )
    footprint = layout_footprint(index, plan)
    log(
        f"  layout: fp32 rows {footprint['fp32_scan_bytes']:,} B, "
        f"sq8 codes {footprint['sq8_scan_bytes']:,} B "
        f"({footprint['layout_ratio']:.2f}x smaller)"
    )
    backends = {}
    for precision in ("fp32", "sq8"):
        backends[f"serial_{precision}"] = SerialBackend(
            index, plan=plan, scan_precision=precision
        )
        backends[f"thread_{precision}"] = ThreadBackend(
            index, plan=plan, n_threads=params["n_shards"],
            scan_precision=precision,
        )
    cases = []
    for batch in params["batches"]:
        queries = all_queries[:batch]
        seconds = {}
        ref = None
        rerank = 0
        for name, backend in backends.items():
            seconds[name], (result, report) = _best_of(
                lambda b=backend: b.run(queries, k=k, nprobe=nprobe),
                params["repeats"],
            )
            if name == "serial_fp32":
                ref = result
                continue
            assert np.array_equal(result.ids, ref.ids), (
                f"{name} ids diverge from the fp32 serial oracle"
            )
            assert np.array_equal(result.distances, ref.distances), (
                f"{name} distances diverge from the fp32 serial oracle"
            )
            if name == "serial_sq8":
                rerank = report.rerank_candidates
        case = {
            "batch": batch,
            "n_slices": params["n_slices"],
            "n_shards": params["n_shards"],
            "seconds": seconds,
            "rerank_candidates": rerank,
            "speedup_sq8_serial": seconds["serial_fp32"] / seconds["serial_sq8"],
            "speedup_sq8_thread": seconds["thread_fp32"] / seconds["thread_sq8"],
        }
        cases.append(case)
        log(
            f"  batch {batch:4d}: "
            + "  ".join(
                f"{name} {sec * 1e3:8.1f} ms"
                for name, sec in seconds.items()
            )
            + f"  (sq8 serial {case['speedup_sq8_serial']:.2f}x,"
            f" {rerank:,} reranked)"
        )
    return footprint, cases


def save_outputs(params, footprint, cases, smoke):
    payload = {
        "workload": {
            key: params[key]
            for key in (
                "n", "dim", "nlist", "nprobe", "k", "n_shards", "n_slices"
            )
        }
        | {"smoke": smoke},
        "layout": footprint,
        "cases": cases,
    }
    c.save_result("BENCH_quantized_scan.json", json.dumps(payload, indent=2))
    rows = [
        [
            case["batch"],
            round(case["seconds"]["serial_fp32"] * 1e3, 1),
            round(case["seconds"]["serial_sq8"] * 1e3, 1),
            round(case["seconds"]["thread_fp32"] * 1e3, 1),
            round(case["seconds"]["thread_sq8"] * 1e3, 1),
            case["rerank_candidates"],
            round(case["speedup_sq8_serial"], 2),
        ]
        for case in cases
    ]
    text = c.format_table(
        [
            "batch", "fp32 (ms)", "sq8 (ms)", "fp32 thr (ms)",
            "sq8 thr (ms)", "reranked", "sq8 speedup",
        ],
        rows,
        title=(
            "quantized scan: sq8 codes + exact fp32 re-rank "
            f"(layout {footprint['layout_ratio']:.2f}x smaller, "
            "host wall-clock, synthetic gaussian)"
        ),
    )
    c.save_result("quantized_scan.txt", text)
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload; fail on sq8 inexactness or layout < 3x",
    )
    args = parser.parse_args(argv)
    params = SMOKE if args.smoke else FULL
    label = "smoke" if args.smoke else "full"
    print(
        f"quantized-scan benchmark ({label}): {params['n']:,} x "
        f"{params['dim']}, nlist {params['nlist']}, nprobe "
        f"{params['nprobe']}"
    )
    footprint, cases = run_suite(params)
    print("\n" + save_outputs(params, footprint, cases, smoke=args.smoke))
    if args.smoke:
        # Exactness is asserted inside run_suite; gate the footprint.
        if footprint["layout_ratio"] < MIN_LAYOUT_RATIO:
            print(
                "FAIL: sq8 scan layout only "
                f"{footprint['layout_ratio']:.2f}x smaller than fp32 "
                f"(need >= {MIN_LAYOUT_RATIO}x)"
            )
            return 1
        print(
            "OK: sq8 byte-identical to the fp32 oracle, layout "
            f"{footprint['layout_ratio']:.2f}x smaller"
        )
    return 0


def test_bench_quantized_scan(benchmark, capsys):
    """Pytest entry point (smoke workload) for the benchmark suite."""
    footprint, cases = benchmark.pedantic(
        lambda: run_suite(SMOKE, log=lambda *_: None), rounds=1, iterations=1
    )
    text = save_outputs(SMOKE, footprint, cases, smoke=True)
    with capsys.disabled():
        print("\n" + text)
    assert footprint["layout_ratio"] >= MIN_LAYOUT_RATIO, footprint
    for case in cases:
        assert case["rerank_candidates"] > 0, case


if __name__ == "__main__":
    sys.exit(main())
