"""One run of one workload: set-up, the pass(es), the checks, and the
metric assembly for either side of the ledger.

``--trace 0``: several set-ups (median reported), the untraced pass,
end-to-end metrics.
``--trace 1``: the same untraced pass and a traced pass over its first
quarter, each on a freshly built deployment (so both see cold caches),
per-layer metrics, and the trace file.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import subprocess
import time
from pathlib import Path

import numpy as np

import schema
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3
TRACE_SPAN_LIMIT = 40_000


# ----------------------------------------------------------------------
# Environment block
# ----------------------------------------------------------------------


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a git repository


def _blas() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def environment(seed: int, seconds: float, pinned: dict) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "pinned_env": pinned,
        "mp_start_method": (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        ),
        "pool_size": wl.POOL,
        "seed": seed,
        "seconds": seconds,
    }


# ----------------------------------------------------------------------
# Shared steps
# ----------------------------------------------------------------------


def _rusage() -> "tuple[float, float]":
    """(peak RSS MiB, CPU seconds) of the runner plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    rss = (own.ru_maxrss + kids.ru_maxrss) / 1024.0
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return rss, cpu


def fell_back(db) -> bool:
    """A process pool that lost its workers or its shared segment serves
    from the thread path; the answers stay right, but it is not the path
    the workload names. ``HarmonyDB`` has no public handle on its
    backend, so this reads it the way the repo's own benchmarks do."""
    return bool(getattr(db._host_backend, "fallback_active", False))


def _check(kind, db, oracle, inputs, sizes, result) -> "tuple[int, float]":
    """(mismatching answers, recall@10) for a finished pass."""
    if kind == "mixed":
        # Final state: a freshly packed serial deployment over the
        # surviving rows must agree with the delta/tombstone layout.
        fresh = wl.make_oracle(db, inputs)
        queries = inputs.warm[: sizes.recall_sample]
        got, _ = db.search(queries, k=wl.K)
        expect, _ = fresh.search(queries, k=wl.K)
        fresh.close()
        dead = np.asarray(db.index.deleted_mask)
        returned = got.ids[got.ids >= 0]
        mismatched = wl.mismatches(got.ids, got.distances, expect) + int(
            dead[returned].sum())
        return mismatched, wl.recall_at_k(db, queries, got.ids)
    mismatched = wl.verify_answers(result.answers, oracle)
    queries = np.concatenate([a[0] for a in result.answers])[: sizes.recall_sample]
    ids = np.concatenate([a[1] for a in result.answers])[: sizes.recall_sample]
    return mismatched, wl.recall_at_k(db, queries, ids)


def _scan_bytes_ratio(db, inputs, sums) -> float:
    """Scanned representation over the raw fp32 size of the live rows.

    Taken at its peak: under writes the layout swells with delta rows
    and tombstoned rows until a compaction. The closing probe (a query
    the result cache has not seen) covers serve_zipf, whose reports
    stay inside the server.
    """
    _, report = db.search(inputs.plan_sample[-1:], k=wl.K)
    return max(sums.scan_ratio_peak, wl.scan_ratio(report, db.index.nlive))


# ----------------------------------------------------------------------
# --trace 0
# ----------------------------------------------------------------------


def end_to_end(name: str, seed: int, seconds: float, sizes) -> dict:
    kind = wl.KINDS[name]
    n_blocks = wl.block_count(name, sizes, seconds)
    inputs = wl.make_inputs(kind, seed, sizes, n_blocks)
    pace = wl.Pace()
    setups, setups_raw = [], []
    db = None
    for _ in range(SETUP_REPEATS):
        if db is not None:
            db.close()
        pace.factor()
        db, elapsed = wl.set_up(name, inputs)
        setups_raw.append(elapsed)
        setups.append(elapsed / pace.factor().small)
    oracle = wl.make_oracle(db, inputs)
    try:
        run = wl.PASSES[kind](db, inputs, sizes, pace, oracle=oracle)
        run.start()
        for b in range(n_blocks):
            run.block(b)
        result = run.finish()
        lost_pool = fell_back(db)
        mismatched, recall = _check(kind, db, oracle, inputs, sizes, result)
        scan_ratio = _scan_bytes_ratio(db, inputs, result.sums)
    finally:
        oracle.close()
        db.close()
    rss_mb, _ = _rusage()
    failed = result.failed + mismatched + int(lost_pool)

    fig = result.figures
    metrics = {
        "setup_s": float(np.median(setups)),
        "throughput": fig["throughput"],
        "p50_ms": fig["p50_ms"],
        "p95_ms": fig["p95_ms"],
        "recall_at_10": recall,
        "scan_bytes_ratio": scan_ratio,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "plan": db.plan.describe(),
        "setups_s": setups,
        "raw.setups_s": setups_raw,
        "pace": {"nominal_s": pace.NOMINAL_S.tolist(),
                 "sections": len(pace.factors),
                 "bulk_small_min_median_max": np.percentile(
                     pace.factors, (0, 50, 100), axis=0).T.tolist()},
        "pass_busy_s": result.busy,
        "ops": result.ops,
        "figures": fig,
        "blocks": result.blocks,
        "mismatched": mismatched,
        "fell_back": lost_pool,
    }
    if kind == "serve":
        detail["rungs"] = [rung.describe() for rung in result.rungs]
        detail["serve_stats"] = result.serve_stats
        detail["cache_stats"] = result.cache_stats
    return dict(attempted=result.attempted, failed=failed, metrics=metrics,
                detail=detail)


# ----------------------------------------------------------------------
# --trace 1
# ----------------------------------------------------------------------


def _same_answers(a: list, b: list) -> bool:
    return all(
        np.array_equal(x[1], y[1]) and np.array_equal(x[2], y[2])
        for x, y in zip(a, b)
    )


def per_layer(name: str, seed: int, seconds: float, sizes) -> dict:
    kind = wl.KINDS[name]
    n_blocks = wl.block_count(name, sizes, seconds)
    n_traced = n_blocks // 4
    inputs = wl.make_inputs(kind, seed, sizes, n_blocks)

    # Two cold deployments: the untraced pass runs every block, the
    # traced pass the first quarter, and over that quarter the two take
    # turns block by block, so a slow spell of the machine lands on
    # both and the traced/untraced ratio stays meaningful. The wrappers
    # are installed for both (switched off they cost one attribute test
    # per call).
    recorder = spans.Recorder()
    pace = wl.Pace()
    ref_db = db = oracle = None
    try:
        with recorder:
            recorder.enabled = False
            ref_db, _ = wl.set_up(name, inputs)
            oracle = wl.make_oracle(ref_db, inputs)
            recorder.enabled = True
            build_from = time.perf_counter()
            db, _ = wl.set_up(name, inputs)
            plain = wl.PASSES[kind](ref_db, inputs, sizes, pace, oracle=oracle)
            watched = wl.PASSES[kind](db, inputs, sizes, pace, recorder=recorder)
            recorder.enabled = False
            plain.start()
            watched.start()
            ops_from = time.perf_counter()
            for b in range(n_blocks):
                if b == n_traced:
                    busy_ref = plain.out.busy
                plain.block(b)
                if b < n_traced:
                    recorder.enabled = True
                    watched.block(b)
                    recorder.enabled = False
            reference, traced = plain.finish(), watched.finish()
            lost_pool = fell_back(ref_db) or fell_back(db)
        plan = db.plan
        # Both deployments were built from the same arrays with the same
        # config, so one oracle (over the untraced one's index) serves both.
        mismatched, _recall = _check(kind, ref_db, oracle, inputs, sizes, reference)
        if kind == "serve":   # which overload requests are refused differs
            mismatched += wl.verify_answers(traced.answers, oracle)
        elif not _same_answers(reference.answers, traced.answers):
            mismatched += 1   # tracing must not change a single answer
    finally:
        for deployment in (oracle, ref_db, db):
            if deployment is not None:
                deployment.close()
    _, cpu_s = _rusage()
    failed = traced.failed + reference.failed + mismatched + int(lost_pool)

    # What the recorder measures (seconds, calls, rows) comes from the
    # spans of the traced quarter; build-time figures (marked ``whole``)
    # from the traced deployment's whole life, set-up included — the
    # planner, for one, scores sample scans while it plans, and those
    # are not the workload's. What the program counts itself
    # (ExecutionReport, ServeStats, ServeResponse, cache stats) is read
    # off the untraced pass, which runs every block.
    all_spans = recorder.spans
    whole_life = spans.aggregate(all_spans)
    totals = spans.aggregate([s for s in all_spans if s[3] >= ops_from])
    self_in_ops = sum(t.self_s for t in totals.values())
    if kind == "serve":
        # Open loop: compare what one batch search costs at the
        # operating rate; walls are set by the arrival schedule.
        busy_ref = plain.exec_p50_ms(range(n_traced))
        busy_traced = traced.figures["exec_p50_ms"]
    else:
        busy_traced = traced.busy

    def total(span, whole=False):
        layer = (whole_life if whole else totals).get(span)
        return layer.total_s if layer is not None else 0.0

    def own(span):
        return totals[span].self_s if span in totals else 0.0

    def calls(span, whole=False):
        layer = (whole_life if whole else totals).get(span)
        return layer.calls if layer is not None else 0

    def count(span, i=0):
        layer = totals.get(span)
        return layer.counts[i] if layer is not None and layer.counts else 0

    def ratio(num, den):
        return num / den if den else 0.0

    sums = reference.sums
    metrics = dict.fromkeys((n for n, *_ in schema.PER_LAYER), 0.0)
    metrics.update({
        "index.probe_s": total("index.probe"),
        "index.probe_calls": calls("index.probe"),
        "index.train_s": total("index.train", whole=True),
        "index.add_s": total("index.add", whole=True),
        "index.remove_s": total("index.remove"),
        "planner.plan_s": total("planner.plan", whole=True),
        "planner.n_vec_shards": plan.n_vector_shards,
        "planner.n_dim_blocks": plan.n_dim_blocks,
        "routing.route_s": total("routing.route"),
        "routing.hit_ratio": ratio(
            sums.routing_hits, sums.routing_hits + sums.routing_misses),
        "routing.evictions": sums.routing_evictions,
        "layout.gather_s": total("layout.gather"),
        "layout.gather_calls": calls("layout.gather"),
        "layout.gather_rows": count("layout.gather"),
        "layout.build_s": total("layout.build", whole=True),
        "layout.refresh_s": total("layout.refresh"),
        "layout.shm_sync_s": total("layout.shm_sync"),
        # The first pack happens in set-up's first search, whose report
        # the pass does not see; compactions and refreshes all do.
        "layout.builds": calls("layout.build", whole=True),
        "layout.refreshes": sums.layout_refreshes,
        "layout.compactions": sums.layout_compactions,
        "layout.delta_rows_peak": sums.delta_rows_peak,
        "pruning.score_s": total("pruning.score"),
        "pruning.score_calls": calls("pruning.score"),
        "pruning.rows_scored": count("pruning.score"),
        "pruning.prune_s": total("pruning.prune"),
        "pruning.pruned_ratio": ratio(
            count("pruning.prune"), count("layout.gather")),
        "pruning.rerank_s": total("pruning.rerank"),
        "pruning.rerank_rows": count("pruning.rerank"),
        "distance.partial_s": total("distance.partial"),
        "distance.partial_calls": calls("distance.partial"),
        "heap.push_s": total("heap.push"),
        "heap.push_calls": calls("heap.push"),
        "heap.accept_ratio": ratio(count("heap.push", 1), count("heap.push", 0)),
        "kernel.prewarm_s": total("kernel.prewarm"),
        "kernel.search_s": total("kernel.search"),
        "kernel.self_s": own("kernel.search"),
        "kernel.collect_s": total("kernel.collect"),
        "backend.search_s": total("backend.search"),
        "backend.self_s": own("backend.search"),
        "backend.steals": sums.steals,
        "backend.fallbacks": int(lost_pool),
        "backend.respawns": sums.respawns,
        "db.search_s": total("db.search"),
        "db.self_s": own("db.search"),
        "db.build_s": total("db.build", whole=True),
        "db.add_s": total("db.add"),
        "db.remove_s": total("db.remove"),
        "db.compact_s": total("db.compact"),
        "cache.lookup_s": total("cache.lookup"),
        "cache.insert_s": total("cache.insert"),
        "proc.cpu_s": cpu_s,
        "trace.unattributed_ratio": 1.0 - ratio(self_in_ops, traced.busy),
        "trace.overhead_ratio": ratio(busy_traced, busy_ref) - 1.0,
        # Demoted end-to-end metrics, read off the untraced pass.
        "failed_share": ratio(failed, traced.attempted + reference.attempted),
        "p99_ms": reference.figures.get("p99_ms", 0.0),
        "max_rate_in_slo": reference.figures.get("max_rate_in_slo", 0.0),
        "goodput_qps": reference.figures.get("goodput_qps", 0.0),
    })
    if kind == "serve":
        cache, serve = reference.cache_stats, reference.serve_stats
        fig = reference.figures
        metrics.update({
            "cache.hit_ratio": ratio(
                cache["hits"], cache["hits"] + cache["misses"]),
            "cache.evictions": cache["evictions"],
            "cache.hit_p50_us": fig["hit_p50_us"],
            "serve.queue_wait_p50_ms": fig["queue_wait_p50_ms"],
            "serve.queue_wait_p99_ms": fig["queue_wait_p99_ms"],
            "serve.exec_p50_ms": fig["exec_p50_ms"],
            "serve.mean_batch": serve["mean_batch_size"],
            "serve.batches": serve["batches"],
            "serve.rejected": serve["rejected"],
            "serve.shed": serve["shed"],
            "serve.slo_violations": serve["slo_violations"],
            "serve.max_queue_depth": serve["max_queue_depth"],
            "loadgen.lag_p99_ms": fig["lag_p99_ms"],
        })

    RESULTS.mkdir(exist_ok=True)
    trace_path = RESULTS / f"trace_{name}.json"
    written = spans.write_trace(
        trace_path, all_spans, origin=build_from, limit=TRACE_SPAN_LIMIT
    )
    detail = {
        "plan": plan.describe(),
        "ops": traced.ops,
        "reference_ops": reference.ops,
        "reference_figures": reference.figures,
        "spans": len(all_spans),
        "spans_written": written,
        "trace_file": str(trace_path.relative_to(HERE)),
        "mismatched": mismatched,
        "result_digest": _digest(traced.answers),
        "self_s_by_span": {k: v.self_s for k, v in sorted(totals.items())},
        "traced_busy": busy_traced,
        "reference_busy": busy_ref,
    }
    if kind == "serve":
        detail["rungs"] = [rung.describe() for rung in reference.rungs]
    return dict(attempted=traced.attempted + reference.attempted,
                failed=failed, metrics=metrics, detail=detail)


def _digest(answers: list) -> str:
    """Hash of every returned id, for the same-seed determinism check."""
    import hashlib

    digest = hashlib.sha256()
    for _queries, ids, _distances in answers:
        digest.update(np.ascontiguousarray(ids).tobytes())
    return digest.hexdigest()


def run(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    sizes = wl.SMOKE if smoke else wl.FULL
    fn = per_layer if trace else end_to_end
    return fn(name, seed, seconds, sizes)

