"""Names, units and bounds of the ledger: the one list ``BENCHMARK.json``,
the runner and the self-test all agree on.

``better`` says which way is good; ``bound`` is the share of the parent
commit's median by which an end-to-end metric may worsen before a later
change counts as a regression on that workload.
"""

from __future__ import annotations

WORKLOADS = (
    ("batch_fp32",
     "serial fp32 oracle path: scoring, pruning and gather do the work; "
     "pools, cache, serve and SQ8 do none"),
    ("batch_sq8",
     "SQ8 decode, error-padded scoring and fp32 re-rank do the work here "
     "and nowhere else; only workload where scan_bytes_ratio differs"),
    ("batch_process",
     "same scan work as batch_fp32 through the process pool, so the "
     "difference is task split, shm dispatch, IPC and result collection"),
    ("serve_zipf",
     "open-loop Zipf traffic over a working set larger than the result "
     "cache: queueing, coalescing, admission, cache and the thread pool"),
    ("mixed_rw",
     "adds and removes beside reads on the process pool: delta append, "
     "tombstones, lazy refresh, compaction and shm overlay sync"),
)

#: (name, unit, better, bound). Every workload reports every one of
#: these from its own samples; README.md has the per-workload definitions.
#: ``throughput`` is the workload's completed work per second (queries on
#: ``batch_*``, requests on ``serve_zipf``, rows written on ``mixed_rw``);
#: ``p50_ms`` / ``p95_ms`` are its request latency.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p95_ms", "ms", "lower", 0.25),
    ("recall_at_10", "ratio", "higher", 0.01),
    ("scan_bytes_ratio", "ratio", "lower", 0.02),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

#: Figures that depend on the seed alone: runs of one commit at one
#: seed must agree on them exactly (``run.py --repeat``). The work
#: counts do so where the whole scan runs on the runner's own thread.
EXACT = ("recall_at_10", "scan_bytes_ratio", "layout.builds",
         "layout.compactions")
EXACT_COUNTS = ("index.probe_calls", "pruning.rows_scored",
                "layout.gather_rows", "heap.push_calls",
                "distance.partial_calls")
SINGLE_THREADED = ("batch_fp32", "batch_sq8")

#: (name, unit, better). Traced pass; 0 where the layer does not run in
#: the workload (or runs inside a pool worker, beyond outside-in reach).
PER_LAYER = (
    ("index.probe_s", "s", "lower"),
    ("index.probe_calls", "count", "lower"),
    ("index.train_s", "s", "lower"),
    ("index.add_s", "s", "lower"),
    ("index.remove_s", "s", "lower"),
    ("planner.plan_s", "s", "lower"),
    ("planner.n_vec_shards", "count", "higher"),
    ("planner.n_dim_blocks", "count", "higher"),
    ("routing.route_s", "s", "lower"),
    ("routing.hit_ratio", "ratio", "higher"),
    ("routing.evictions", "count", "lower"),
    ("layout.gather_s", "s", "lower"),
    ("layout.gather_calls", "count", "lower"),
    ("layout.gather_rows", "rows", "lower"),
    ("layout.build_s", "s", "lower"),
    ("layout.refresh_s", "s", "lower"),
    ("layout.shm_sync_s", "s", "lower"),
    ("layout.builds", "count", "lower"),
    ("layout.refreshes", "count", "lower"),
    ("layout.compactions", "count", "lower"),
    ("layout.delta_rows_peak", "rows", "lower"),
    ("pruning.score_s", "s", "lower"),
    ("pruning.score_calls", "count", "lower"),
    ("pruning.rows_scored", "rows", "lower"),
    ("pruning.prune_s", "s", "lower"),
    ("pruning.pruned_ratio", "ratio", "higher"),
    ("pruning.rerank_s", "s", "lower"),
    ("pruning.rerank_rows", "rows", "lower"),
    ("distance.partial_s", "s", "lower"),
    ("distance.partial_calls", "count", "lower"),
    ("heap.push_s", "s", "lower"),
    ("heap.push_calls", "count", "lower"),
    ("heap.accept_ratio", "ratio", "higher"),
    ("kernel.prewarm_s", "s", "lower"),
    ("kernel.search_s", "s", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("kernel.collect_s", "s", "lower"),
    ("backend.search_s", "s", "lower"),
    ("backend.self_s", "s", "lower"),
    ("backend.steals", "count", "higher"),
    ("backend.fallbacks", "count", "lower"),
    ("backend.respawns", "count", "lower"),
    ("db.search_s", "s", "lower"),
    ("db.self_s", "s", "lower"),
    ("db.build_s", "s", "lower"),
    ("db.add_s", "s", "lower"),
    ("db.remove_s", "s", "lower"),
    ("db.compact_s", "s", "lower"),
    ("cache.lookup_s", "s", "lower"),
    ("cache.insert_s", "s", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.hit_p50_us", "us", "lower"),
    ("serve.queue_wait_p50_ms", "ms", "lower"),
    ("serve.queue_wait_p99_ms", "ms", "lower"),
    ("serve.exec_p50_ms", "ms", "lower"),
    ("serve.mean_batch", "count", "higher"),
    ("serve.batches", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.slo_violations", "count", "lower"),
    ("serve.max_queue_depth", "count", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("trace.unattributed_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    # Demoted from the end-to-end list (README.md, "Demoted"), read off
    # the traced run's untraced pass. failed_share: always 0 on a healthy
    # run, where the driver wants metrics that never are; the same figure
    # is the result line's failed / attempted. The rest: ten-seed spread
    # or set-to-set shift beyond the issue's bound on the reference box.
    ("failed_share", "ratio", "lower"),
    ("p99_ms", "ms", "lower"),
    ("max_rate_in_slo", "1/s", "higher"),
    ("goodput_qps", "1/s", "higher"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json(run_seconds: int) -> dict:
    """The exact content of the repo-root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
