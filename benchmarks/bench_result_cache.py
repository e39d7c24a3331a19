"""Result cache under skewed repeated-query traffic.

Real host wall-clock over Zipf-distributed repeated-query streams
(:func:`repro.workload.zipf_query_stream`): a small pool of queries is
replayed with popularity ``p(rank) ∝ rank^-alpha``, the traffic shape
the result cache is built for. Two arms run the identical stream
against identically built deployments:

- ``off``: cache disabled — every request pays routing + scan. This
  arm doubles as the byte-identity oracle for the exact arm.
- ``exact``: :class:`repro.cache.ResultCache` attached — repeats are
  answered from the cache, byte-identical to the uncached answer
  (asserted row by row against the ``off`` arm).

The closed loop measures per-request p50/p99/QPS per arm; an open-loop
pass replays a Poisson schedule through the coalescing server and
shows cache hits resolving at submit (``ServeStats.cache_hits``). A
final mutation round checks invalidation: after ``db.add`` the cache
flushes (invalidations counter moves) and post-mutation answers match
the uncached deployment byte for byte.

Results accumulate in ``results/BENCH_result_cache.json`` plus a
text table; ``--smoke`` runs a small stream and exits non-zero if the
exact arm diverges from the uncached oracle, its hit rate falls below
60%, or invalidation misbehaves (the CI cache-smoke gate). The full
run additionally gates the headline speedups: exact caching must
deliver >= 3x p50 and >= 2x QPS over the uncached arm.

Usage::

    PYTHONPATH=../src python bench_result_cache.py            # full
    PYTHONPATH=../src python bench_result_cache.py --smoke    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

import _common as c
from repro import HarmonyConfig, HarmonyDB
from repro.serve.harness import run_open_loop
from repro.workload import poisson_arrivals, zipf_query_stream

FULL = dict(
    n=40_000, dim=64, nlist=64, nprobe=8, k=10,
    pool=64, stream=768, alpha=1.2, n_threads=4,
    serve_requests=256, mutate_rows=256,
)
SMOKE = dict(
    n=6_000, dim=48, nlist=32, nprobe=8, k=10,
    pool=32, stream=160, alpha=1.2, n_threads=2,
    serve_requests=64, mutate_rows=64,
)

#: Gates for the full run's headline numbers (the issue's acceptance
#: bar). The smoke gate checks correctness + hit rate only — CI boxes
#: are too noisy for wall-clock ratios.
MIN_P50_SPEEDUP = 3.0
MIN_QPS_SPEEDUP = 2.0
MIN_HIT_RATE = 0.60


def build_dataset(params, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((params["n"], params["dim"]))
    base = base.astype(np.float32)
    pool = rng.standard_normal((params["pool"], params["dim"]))
    pool = pool.astype(np.float32)
    return base, pool


def build_db(params, base, pool, enable_cache):
    """One deployment; identical seed/plan across arms."""
    config = HarmonyConfig(
        nlist=params["nlist"],
        nprobe=params["nprobe"],
        backend="thread",
        n_threads=params["n_threads"],
        enable_cache=enable_cache,
        cache_size=4 * params["pool"],
    )
    db = HarmonyDB(dim=params["dim"], config=config)
    db.build(base, sample_queries=pool)
    db.search(pool[:1], k=params["k"])  # warm the layout + pool
    return db


def run_closed_loop(db, stream, k):
    """One request in flight at a time; per-request wall latencies."""
    latencies = np.zeros(stream.shape[0], dtype=np.float64)
    ids, distances = [], []
    t0 = time.perf_counter()
    for i in range(stream.shape[0]):
        t_start = time.perf_counter()
        result, _ = db.search(stream[i : i + 1], k=k)
        latencies[i] = time.perf_counter() - t_start
        ids.append(result.ids[0])
        distances.append(result.distances[0])
    elapsed = time.perf_counter() - t0
    row = {
        "n_requests": int(stream.shape[0]),
        "qps": stream.shape[0] / elapsed if elapsed > 0 else 0.0,
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "mean_ms": float(latencies.mean() * 1e3),
    }
    return row, ids, distances


def mismatch_count(ids_a, dist_a, ids_b, dist_b) -> int:
    return sum(
        1
        for i in range(len(ids_a))
        if not (
            np.array_equal(ids_a[i], ids_b[i])
            and np.array_equal(dist_a[i], dist_b[i])
        )
    )


def run_serve_pass(db, stream, k, rate, label, log=print):
    """Open-loop Poisson replay through the coalescing server."""
    arrivals = poisson_arrivals(stream.shape[0], rate, seed=11)
    server = db.serve(queue_depth=stream.shape[0])
    try:
        open_loop = run_open_loop(server, stream, arrivals, k=k)
        stats = server.stats.to_dict()
    finally:
        server.close()
    row = open_loop.to_dict()
    row["arm"] = label
    row["cache_hits"] = int(stats.get("cache_hits", 0))
    log(
        f"  serve {label:>6}: {row['sustained_qps']:8.1f} qps sustained,"
        f" p50 {row['p50_ms']:.2f} ms, {row['cache_hits']} submit-time"
        " cache hits"
    )
    return row


def check_invalidation(db_off, db_cache, params, failures, log=print):
    """Mutations must flush the cache and never serve stale answers."""
    rng = np.random.default_rng(5)
    extra = rng.standard_normal(
        (params["mutate_rows"], params["dim"])
    ).astype(np.float32)
    before = db_cache.result_cache.stats()
    db_off.add(extra)
    db_cache.add(extra)
    pool_batch = build_dataset(params)[1]
    k = params["k"]
    ref, _ = db_off.search(pool_batch, k=k)
    got, _ = db_cache.search(pool_batch, k=k)
    if not (
        np.array_equal(ref.ids, got.ids)
        and np.array_equal(ref.distances, got.distances)
    ):
        failures.append(
            "post-mutation cached answers diverge from the uncached "
            "deployment — invalidation served stale entries"
        )
    after = db_cache.result_cache.stats()
    invalidations = after.invalidations - before.invalidations
    if invalidations < 1:
        failures.append(
            "db.add did not invalidate the result cache "
            f"({invalidations} invalidations recorded)"
        )
    # The flushed cache must re-fill: an identical repeat now hits.
    warm, _ = db_cache.search(pool_batch, k=k)
    repeat_hits = db_cache.result_cache.stats().hits - after.hits
    if repeat_hits < pool_batch.shape[0]:
        failures.append(
            "cache failed to re-fill after invalidation "
            f"({repeat_hits}/{pool_batch.shape[0]} repeat hits)"
        )
    if not np.array_equal(warm.ids, ref.ids):
        failures.append("re-filled cache diverges from the uncached oracle")
    log(
        f"  invalidation: {invalidations} flush(es) on add, "
        f"{repeat_hits}/{pool_batch.shape[0]} repeat hits after re-fill"
    )
    return {
        "invalidations": int(invalidations),
        "post_mutation_byte_identical": True,
        "repeat_hits_after_refill": int(repeat_hits),
    }


def run_suite(params, smoke, log=print):
    failures: list[str] = []
    base, pool = build_dataset(params)
    k = params["k"]
    stream, picks = zipf_query_stream(
        pool, alpha=params["alpha"], n=params["stream"], seed=7
    )
    unique = int(np.unique(picks).size)
    log(
        f"  stream: {params['stream']} requests over {unique} distinct"
        f" pool queries (alpha={params['alpha']})"
    )

    rows = []
    db_off = build_db(params, base, pool, enable_cache=False)
    off_row, off_ids, off_dist = run_closed_loop(db_off, stream, k)
    off_row |= {"arm": "off", "hit_rate": 0.0}
    rows.append(off_row)
    log(
        f"  closed    off: p50 {off_row['p50_ms']:7.3f} ms,"
        f" {off_row['qps']:8.1f} qps"
    )

    db_exact = build_db(params, base, pool, enable_cache=True)
    exact_row, exact_ids, exact_dist = run_closed_loop(db_exact, stream, k)
    stats = db_exact.result_cache.stats()
    lookups = stats.hits + stats.misses
    exact_row |= {
        "arm": "exact",
        "hit_rate": stats.hits / lookups if lookups else 0.0,
        "cache": stats.to_dict(),
    }
    rows.append(exact_row)
    log(
        f"  closed  exact: p50 {exact_row['p50_ms']:7.3f} ms,"
        f" {exact_row['qps']:8.1f} qps,"
        f" hit rate {exact_row['hit_rate']:.0%}"
    )
    mismatches = mismatch_count(exact_ids, exact_dist, off_ids, off_dist)
    if mismatches:
        failures.append(
            f"exact arm diverges from the uncached oracle on "
            f"{mismatches}/{len(off_ids)} requests"
        )
    if exact_row["hit_rate"] < MIN_HIT_RATE:
        failures.append(
            f"exact hit rate {exact_row['hit_rate']:.0%} below the "
            f"{MIN_HIT_RATE:.0%} gate on a Zipf({params['alpha']}) stream"
        )

    # Open loop: cache hits resolve at submit time, ahead of the
    # micro-batch queue.
    rate = 2.0 * max(off_row["qps"], 1.0)
    serve_stream = stream[: params["serve_requests"]]
    serve_rows = [
        run_serve_pass(db_off, serve_stream, k, rate, "off", log=log),
        run_serve_pass(db_exact, serve_stream, k, rate, "exact", log=log),
    ]
    if serve_rows[1]["cache_hits"] < 1:
        failures.append("server recorded no submit-time cache hits")

    invalidation = check_invalidation(
        db_off, db_exact, params, failures, log=log
    )

    speedups = {
        "p50": off_row["p50_ms"] / max(exact_row["p50_ms"], 1e-9),
        "qps": exact_row["qps"] / max(off_row["qps"], 1e-9),
    }
    log(
        f"  exact-cache speedup: p50 {speedups['p50']:.1f}x,"
        f" qps {speedups['qps']:.1f}x"
    )
    if not smoke:
        if speedups["p50"] < MIN_P50_SPEEDUP:
            failures.append(
                f"exact p50 speedup {speedups['p50']:.2f}x below the "
                f"{MIN_P50_SPEEDUP}x gate"
            )
        if speedups["qps"] < MIN_QPS_SPEEDUP:
            failures.append(
                f"exact QPS speedup {speedups['qps']:.2f}x below the "
                f"{MIN_QPS_SPEEDUP}x gate"
            )
    db_off.close()
    db_exact.close()
    return rows, serve_rows, invalidation, speedups, failures


def save_outputs(params, rows, serve_rows, invalidation, speedups, smoke):
    payload = {
        "workload": {
            key: params[key]
            for key in (
                "n", "dim", "nlist", "nprobe", "k", "pool", "stream",
                "alpha", "n_threads", "serve_requests", "mutate_rows",
            )
        }
        | {"smoke": smoke, "cpu_count": os.cpu_count()},
        "closed_loop": rows,
        "open_loop": serve_rows,
        "invalidation": invalidation,
        "speedup": speedups,
    }
    c.save_result(
        "BENCH_result_cache.json", json.dumps(payload, indent=2)
    )
    table = c.format_table(
        ["arm", "p50 (ms)", "p99 (ms)", "qps", "hit rate"],
        [
            [
                row["arm"],
                round(row["p50_ms"], 3),
                round(row["p99_ms"], 3),
                round(row["qps"], 1),
                f"{row['hit_rate']:.0%}",
            ]
            for row in rows
        ],
        title=(
            f"result cache on Zipf({params['alpha']}) repeats "
            f"(exact: p50 {speedups['p50']:.1f}x, qps "
            f"{speedups['qps']:.1f}x; host wall-clock)"
        ),
    )
    c.save_result("result_cache.txt", table)
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "small stream; fail on oracle divergence, hit rate below "
            "60%%, or invalidation misbehavior"
        ),
    )
    args = parser.parse_args(argv)
    params = SMOKE if args.smoke else FULL
    label = "smoke" if args.smoke else "full"
    print(
        f"result-cache benchmark ({label}): {params['n']:,} x "
        f"{params['dim']}, {params['stream']} requests over a "
        f"{params['pool']}-query pool, alpha {params['alpha']}"
    )
    rows, serve_rows, invalidation, speedups, failures = run_suite(
        params, smoke=args.smoke
    )
    print(
        "\n"
        + save_outputs(
            params, rows, serve_rows, invalidation, speedups, args.smoke
        )
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    if args.smoke:
        print(
            "OK: exact arm byte-identical to the uncached oracle; hit "
            "rate and invalidation within gates"
        )
    return 0


def test_bench_result_cache(benchmark, capsys):
    """Pytest entry point (smoke workload) for the benchmark suite."""
    rows, serve_rows, invalidation, speedups, failures = benchmark.pedantic(
        lambda: run_suite(SMOKE, smoke=True, log=lambda *_: None),
        rounds=1,
        iterations=1,
    )
    assert not failures, failures
    with capsys.disabled():
        print(
            save_outputs(
                SMOKE, rows, serve_rows, invalidation, speedups, smoke=True
            )
        )


if __name__ == "__main__":
    sys.exit(main())
