"""Write-heavy serving: full-repack-per-mutation vs delta segments.

Real host wall-clock over a sustained read/write mix: every round
appends a batch of vectors, tombstones a few, and serves a query
batch. Two arms run the identical mutation schedule on identical
index clones:

- ``repack``: ``delta_compact_ratio`` set infinitesimally small, so
  every absorbed mutation immediately triggers a compaction — a
  faithful stand-in for the old write path that rebuilt the packed
  layout (O(ntotal) rows copied) on the first search after *every*
  mutation batch.
- ``delta``: the LSM write path — mutations land in append-only delta
  segments and tombstone bits, the base generation is reused in
  place, and no compaction fires inside the measured window.

Both arms run at both scan precisions — fp32, where a repack is a
plain O(ntotal) memcpy, and sq8, where it additionally re-encodes and
re-pads every base row (the expensive case the delta path is for) —
and must stay byte-identical to the serial fp32 oracle after every
round (asserted). The JSON records per-arm wall-clock, layout
build/refresh/compaction counters, and per-precision speedups; a
process-pool pass additionally proves the shared base segment is
re-homed exactly once (delta overlays ride a small side segment).

Results accumulate in ``results/BENCH_write_heavy.json`` plus a text
table; ``--smoke`` runs a small mix and exits non-zero if any arm
diverges from the oracle, the delta arm rebuilt its layout, or the
process pool re-homed shared memory on a delta-only mutation (the CI
write-smoke gate — speedup itself is not gated there).

Usage::

    PYTHONPATH=../src python bench_write_heavy.py            # full
    PYTHONPATH=../src python bench_write_heavy.py --smoke    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

import _common as c
from repro.core.executor import ProcessBackend, SerialBackend, ThreadBackend
from repro.core.partition import build_plan
from repro.index.ivf import IVFFlatIndex

FULL = dict(
    n=60_000, dim=96, nlist=64, nprobe=8, k=10,
    n_shards=4, n_slices=4, batch=16, rounds=24,
    write_rows=256, remove_rows=64, n_threads=4, repeats=2,
    precisions=("fp32", "sq8"),
)
SMOKE = dict(
    n=8_000, dim=48, nlist=32, nprobe=8, k=10,
    n_shards=4, n_slices=2, batch=32, rounds=6,
    write_rows=64, remove_rows=16, n_threads=2, repeats=1,
    precisions=("fp32", "sq8"),
)

#: Compaction ratio so small that any pending delta row triggers a
#: rebuild on the next search — the old full-repack-per-mutation path.
REPACK_RATIO = 1e-12


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


def mutation_schedule(params, seed=1):
    """The per-round (new_rows, remove_count) schedule, fixed up front
    so both arms replay exactly the same mutations."""
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(
            (params["write_rows"], params["dim"])
        ).astype(np.float32)
        for _ in range(params["rounds"])
    ]


def run_arm(params, precision, delta_compact_ratio, failures, label,
            log=print):
    """One sustained read/write mix; returns timing + layout counters."""
    index, queries = build_workload(params)
    plan = build_plan(
        index,
        n_machines=params["n_shards"] * params["n_slices"],
        n_vector_shards=params["n_shards"],
        n_dim_blocks=params["n_slices"],
    )
    writes = mutation_schedule(params)
    nprobe, k = params["nprobe"], params["k"]
    remove_rng = np.random.default_rng(2)
    with ThreadBackend(
        index,
        plan=plan,
        n_threads=params["n_threads"],
        scan_precision=precision,
        delta_compact_ratio=delta_compact_ratio,
    ) as backend:
        backend.search(queries, k=k, nprobe=nprobe)  # warm layout + pool
        builds_at_start = backend.kernel.layout_builds
        start = time.perf_counter()
        for new_rows in writes:
            index.add(new_rows)
            alive = np.flatnonzero(~index.deleted_mask)
            index.remove_ids(
                remove_rng.choice(
                    alive, size=params["remove_rows"], replace=False
                )
            )
            result = backend.search(queries, k=k, nprobe=nprobe)
        seconds = time.perf_counter() - start
        oracle = SerialBackend(index, plan=plan)
        ref = oracle.search(queries, k=k, nprobe=nprobe)
        if not np.array_equal(result.ids, ref.ids) or not np.array_equal(
            result.distances, ref.distances
        ):
            failures.append(
                f"{precision}/{label} arm diverges from the serial "
                "fp32 oracle"
            )
        row = {
            "arm": label,
            "precision": precision,
            "seconds": seconds,
            "layout_builds": backend.kernel.layout_builds - builds_at_start,
            "layout_refreshes": backend.kernel.layout_refreshes,
            "layout_compactions": backend.kernel.layout_compactions,
            "delta_rows_pending": backend.kernel.layout_stats()["delta_rows"],
        }
    log(
        f"  {precision:>4} {label:>6} arm: {seconds * 1e3:8.1f} ms"
        f"  ({row['layout_builds']} rebuilds,"
        f" {row['layout_refreshes']} refreshes)"
    )
    return row


def check_process_overlay(params, failures, log=print):
    """Delta-only mutations must never re-home the shared base segment."""
    index, queries = build_workload(params)
    plan = build_plan(
        index,
        n_machines=params["n_shards"] * params["n_slices"],
        n_vector_shards=params["n_shards"],
        n_dim_blocks=params["n_slices"],
    )
    nprobe, k = params["nprobe"], params["k"]
    with ProcessBackend(
        index, plan=plan, n_workers=2, delta_compact_ratio=0.5
    ) as backend:
        backend.search(queries, k=k, nprobe=nprobe)
        rng = np.random.default_rng(3)
        for _ in range(3):
            index.add(
                rng.standard_normal(
                    (params["write_rows"], params["dim"])
                ).astype(np.float32)
            )
            result = backend.search(queries, k=k, nprobe=nprobe)
        ref = SerialBackend(index, plan=plan).search(
            queries, k=k, nprobe=nprobe
        )
        if not np.array_equal(result.ids, ref.ids):
            failures.append("process overlay diverges from the oracle")
        if backend.shm_base_rehomes != 1:
            failures.append(
                "delta-only mutations re-homed the shared base segment "
                f"({backend.shm_base_rehomes} re-homes, expected 1)"
            )
        if backend.fallback_active:
            failures.append("process pool fell back to the serial loop")
        stats = {
            "shm_base_rehomes": int(backend.shm_base_rehomes),
            "shm_overlay_syncs": int(backend.shm_overlay_syncs),
        }
    log(
        f"  process overlay: {stats['shm_base_rehomes']} base re-home(s),"
        f" {stats['shm_overlay_syncs']} overlay sync(s)"
    )
    return stats


def run_suite(params, log=print):
    failures: list[str] = []
    rows = []
    speedups = {}
    for precision in params["precisions"]:
        per_arm = []
        for label, ratio in (("repack", REPACK_RATIO), ("delta", 0.5)):
            best = None
            for _ in range(params["repeats"]):
                row = run_arm(
                    params, precision, ratio, failures, label, log=log
                )
                if best is None or row["seconds"] < best["seconds"]:
                    best = row
            per_arm.append(best)
        repack, delta = per_arm
        if delta["layout_builds"] != 0:
            failures.append(
                f"{precision} delta arm rebuilt the packed layout "
                f"{delta['layout_builds']} times on delta-only mutations"
            )
        if repack["layout_builds"] < params["rounds"]:
            failures.append(
                f"{precision} repack arm failed to rebuild per round — "
                "baseline is broken"
            )
        speedups[precision] = repack["seconds"] / delta["seconds"]
        log(
            f"  {precision} write-mix speedup (repack -> delta): "
            f"{speedups[precision]:.2f}x"
        )
        rows.extend(per_arm)
    overlay = check_process_overlay(params, failures, log=log)
    return rows, overlay, speedups, failures


def save_outputs(params, rows, overlay, speedups, smoke):
    payload = {
        "workload": {
            key: params[key]
            for key in (
                "n", "dim", "nlist", "nprobe", "k", "n_shards",
                "n_slices", "batch", "rounds", "write_rows",
                "remove_rows", "n_threads",
            )
        }
        | {"smoke": smoke, "cpu_count": os.cpu_count()},
        "arms": rows,
        "process_overlay": overlay,
        "speedup": speedups,
    }
    c.save_result("BENCH_write_heavy.json", json.dumps(payload, indent=2))
    headline = ", ".join(
        f"{precision} {ratio:.2f}x" for precision, ratio in speedups.items()
    )
    table = c.format_table(
        [
            "precision", "arm", "mix (ms)", "rebuilds", "refreshes",
            "compactions", "pending rows",
        ],
        [
            [
                row["precision"],
                row["arm"],
                round(row["seconds"] * 1e3, 1),
                row["layout_builds"],
                row["layout_refreshes"],
                row["layout_compactions"],
                row["delta_rows_pending"],
            ]
            for row in rows
        ],
        title=(
            f"write-heavy mix: full repack vs delta segments "
            f"({headline}, host wall-clock)"
        ),
    )
    c.save_result("write_heavy.txt", table)
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "small mix; fail on divergence, delta-arm rebuilds, or "
            "shared-memory re-homing"
        ),
    )
    args = parser.parse_args(argv)
    params = SMOKE if args.smoke else FULL
    label = "smoke" if args.smoke else "full"
    print(
        f"write-heavy benchmark ({label}): {params['n']:,} x "
        f"{params['dim']}, {params['rounds']} rounds x "
        f"+{params['write_rows']}/-{params['remove_rows']} rows, "
        f"batch {params['batch']}"
    )
    rows, overlay, speedups, failures = run_suite(params)
    print("\n" + save_outputs(params, rows, overlay, speedups, args.smoke))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    if args.smoke:
        print(
            "OK: both arms match the serial oracle; delta-only "
            "mutations left the layout and shared memory in place"
        )
    return 0


def test_bench_write_heavy(benchmark, capsys):
    """Pytest entry point (smoke workload) for the benchmark suite."""
    rows, overlay, speedups, failures = benchmark.pedantic(
        lambda: run_suite(SMOKE, log=lambda *_: None),
        rounds=1,
        iterations=1,
    )
    assert not failures, failures
    with capsys.disabled():
        print(save_outputs(SMOKE, rows, overlay, speedups, smoke=True))


if __name__ == "__main__":
    sys.exit(main())
