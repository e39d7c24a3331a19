"""Command-line interface mirroring the paper's parameters (Section 5).

The paper's binary exposes ``-NMachine``, ``-Mode``,
``-Pruning_Configuration``, ``-Indexing_Parameters`` and ``-alpha``;
this CLI exposes the same knobs over the dataset analogues::

    python -m repro run --dataset sift1m --nmachine 4 --mode harmony \
        --nlist 64 --nprobe 8 --k 10

    python -m repro datasets          # list available analogues
    python -m repro plan --dataset msong --nmachine 4   # planner view
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.bench.recall import recall_at_k
from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB
from repro.data.datasets import DATASET_REGISTRY, available_datasets, load_dataset
from repro.data.ground_truth import exact_knn


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HARMONY reproduction: distributed ANN search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="build a deployment and run queries")
    run.add_argument("--dataset", default="sift1m", help="dataset analogue")
    run.add_argument("--size", type=int, default=None, help="base vectors")
    run.add_argument("--queries", type=int, default=None, help="query count")
    run.add_argument(
        "--nmachine", type=int, default=4, help="worker nodes (-NMachine)"
    )
    run.add_argument(
        "--mode",
        default="harmony",
        choices=[m.value for m in Mode],
        help="partitioning mode (-Mode)",
    )
    run.add_argument("--nlist", type=int, default=64)
    run.add_argument("--nprobe", type=int, default=8)
    run.add_argument("--k", type=int, default=10)
    run.add_argument(
        "--alpha", type=float, default=4.0, help="imbalance weight (-alpha)"
    )
    run.add_argument(
        "--no-pruning",
        action="store_true",
        help="disable dimension-level pruning (-Pruning_Configuration)",
    )
    run.add_argument(
        "--backend",
        default="sim",
        choices=["sim", "thread", "process", "serial"],
        help="execution backend: simulated cluster (timing model), "
        "host threads, worker processes over shared memory, or the "
        "serial reference loop",
    )
    run.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads for --backend thread",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --backend process "
        "(default: one per CPU core)",
    )
    run.add_argument(
        "--no-batch-queries",
        action="store_true",
        help="disable the fused multi-query scan path on host "
        "backends (results are bitwise identical either way)",
    )
    run.add_argument(
        "--scan-precision",
        default="fp32",
        choices=["fp32", "sq8"],
        dest="scan_precision",
        help="candidate-scan representation: full-precision rows, or "
        "SQ8 codes with exact float32 re-ranking (byte-identical "
        "results, a quarter of the scan bandwidth)",
    )
    run.add_argument(
        "--cache",
        action="store_true",
        help="attach the result cache: exact repeats replay cached "
        "answers byte-identically, skipping routing and scanning",
    )
    run.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        dest="cache_size",
        help="result-cache capacity in entries (segmented LRU)",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record per-query spans and write a Chrome trace_event "
        "JSON timeline (loadable in about:tracing / Perfetto)",
    )
    run.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write a Prometheus text dump of the run's metrics "
        "('-' for stdout)",
    )
    run.add_argument("--seed", type=int, default=0)

    sub.add_parser("datasets", help="list dataset analogues")

    trace = sub.add_parser(
        "trace",
        help="run a small traced search and export its cluster timeline",
    )
    trace.add_argument("--dataset", default="sift1m")
    trace.add_argument("--size", type=int, default=None)
    trace.add_argument("--queries", type=int, default=8)
    trace.add_argument("--nmachine", type=int, default=4)
    trace.add_argument(
        "--mode", default="harmony", choices=[m.value for m in Mode]
    )
    trace.add_argument("--nlist", type=int, default=64)
    trace.add_argument("--nprobe", type=int, default=8)
    trace.add_argument("--k", type=int, default=10)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--output", default="trace.json", help="Chrome trace JSON path"
    )
    trace.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="also write a Prometheus text dump ('-' for stdout)",
    )

    plan = sub.add_parser("plan", help="show the cost model's grid choices")
    plan.add_argument("--dataset", default="sift1m")
    plan.add_argument("--size", type=int, default=None)
    plan.add_argument("--nmachine", type=int, default=4)
    plan.add_argument("--nlist", type=int, default=64)
    plan.add_argument("--nprobe", type=int, default=8)
    plan.add_argument("--alpha", type=float, default=4.0)
    plan.add_argument("--seed", type=int, default=0)

    tune = sub.add_parser(
        "tune", help="pick the smallest nprobe for a recall target"
    )
    tune.add_argument("--dataset", default="sift1m")
    tune.add_argument("--size", type=int, default=None)
    tune.add_argument("--nlist", type=int, default=64)
    tune.add_argument("--k", type=int, default=10)
    tune.add_argument(
        "--target-recall", type=float, default=0.95, dest="target_recall"
    )
    tune.add_argument("--seed", type=int, default=0)

    capacity = sub.add_parser(
        "capacity",
        help="size the smallest cluster for a recall + QPS target",
    )
    capacity.add_argument("--dataset", default="sift1m")
    capacity.add_argument("--size", type=int, default=None)
    capacity.add_argument("--nlist", type=int, default=64)
    capacity.add_argument("--k", type=int, default=10)
    capacity.add_argument(
        "--target-recall", type=float, default=0.95, dest="target_recall"
    )
    capacity.add_argument(
        "--target-qps", type=float, required=True, dest="target_qps"
    )
    capacity.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve-bench",
        help="open-loop vs closed-loop serving study "
        "(micro-batch coalescing QPS / latency curves)",
    )
    serve.add_argument("--dataset", default="sift1m")
    serve.add_argument("--size", type=int, default=None)
    serve.add_argument("--queries", type=int, default=None)
    serve.add_argument("--nmachine", type=int, default=4)
    serve.add_argument("--nlist", type=int, default=None)
    serve.add_argument("--nprobe", type=int, default=8)
    serve.add_argument(
        "--grid",
        type=int,
        nargs=2,
        default=None,
        metavar=("B_VEC", "B_DIM"),
        help="force the partition grid instead of the cost model "
        "(the smoke gate defaults to 4 1: pure vector sharding, "
        "where batched shard-major scans parallelize cleanly)",
    )
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument(
        "--backend",
        default="thread",
        choices=["thread", "process", "serial"],
        help="host backend the server executes batches on",
    )
    serve.add_argument(
        "--max-batch", type=int, default=None, dest="max_batch",
        help="coalescing micro-batch cap (default: config serve_max_batch)",
    )
    serve.add_argument(
        "--slo-ms", type=float, default=None, dest="slo_ms",
        help="end-to-end latency SLO that slo_violations are "
        "counted against",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=None, dest="queue_depth",
        help="admission-control queue bound for the overload study",
    )
    serve.add_argument(
        "--shed-policy",
        default=None,
        dest="shed_policy",
        choices=["reject", "shed_oldest", "degrade_nprobe"],
        help="overload policy for the admission study rows",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="small fast run that also gates on byte-identical results "
        "and a coalescing speedup at saturating load",
    )
    return parser


def _cmd_datasets() -> int:
    print(f"{'name':<18} {'paper size':>13} {'dim':>5} {'type':<12} scaled default")
    for name in available_datasets():
        spec = DATASET_REGISTRY[name]
        print(
            f"{name:<18} {spec.paper_size:>13,} {spec.paper_dim:>5} "
            f"{spec.data_type:<12} {spec.default_size:,}"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    dataset = load_dataset(
        args.dataset, size=args.size, n_queries=args.queries, seed=args.seed
    )
    config = HarmonyConfig(
        n_machines=args.nmachine,
        nlist=args.nlist,
        nprobe=args.nprobe,
        mode=args.mode,
        alpha=args.alpha,
        enable_pruning=not args.no_pruning,
        seed=args.seed,
        backend=args.backend,
        n_threads=args.threads,
        n_workers=args.workers,
        batch_queries=not args.no_batch_queries,
        scan_precision=args.scan_precision,
        enable_cache=args.cache,
        cache_size=args.cache_size,
    )
    print(
        f"dataset {dataset.name}: {dataset.size:,} x {dataset.dim} vectors, "
        f"{dataset.n_queries} queries"
    )
    db = HarmonyDB(dim=dataset.dim, config=config)
    build = db.build(dataset.base, sample_queries=dataset.queries)
    print(f"plan: {db.plan.describe()}")
    print(
        f"build (simulated): train {build.train_seconds * 1e3:.1f} ms, "
        f"add {build.add_seconds * 1e3:.1f} ms, "
        f"pre-assign {build.preassign_seconds * 1e3:.1f} ms"
    )
    if args.trace is not None:
        db.enable_tracing()
    result, report = db.search(dataset.queries, k=args.k)
    _, truth = exact_knn(dataset.base, dataset.queries, k=args.k)
    print(f"recall@{args.k}: {recall_at_k(result.ids, truth):.3f}")
    if args.backend == "sim":
        print(f"simulated QPS: {report.qps:,.0f}")
        if report.latencies.size:
            p99 = f"{report.latency_percentile(99) * 1e6:.0f} us"
            mean = f"{report.mean_latency * 1e6:.0f} us"
        else:
            p99 = mean = "n/a"
        print(f"latency (simulated): mean {mean}, p99 {p99}")
        print(f"load imbalance (CV): {report.normalized_imbalance:.3f}")
        if report.pruning is not None:
            ratios = " ".join(f"{r:.0%}" for r in report.pruning.ratios())
            print(f"pruned per slice: {ratios}")
    else:
        print(
            f"backend {args.backend}: host wall-clock "
            f"{report.simulated_seconds * 1e3:.1f} ms "
            f"({report.qps:,.0f} QPS)"
        )
    if db.result_cache is not None:
        stats = db.result_cache.stats()
        print(
            f"result cache: {stats.hits} hits / {stats.misses} misses, "
            f"{stats.entries} entries, {stats.bytes:,} bytes"
        )
    _export_observability(db, report, args.trace, args.metrics)
    db.close()
    return 0


def _export_observability(
    db: HarmonyDB, report, trace_path, metrics_path
) -> None:
    """Write the report's trace / metrics exports where requested."""
    if trace_path is not None and report.trace is not None:
        report.trace.save_chrome(trace_path)
        print(
            f"trace: {len(report.trace)} spans -> {trace_path} "
            "(load in about:tracing or https://ui.perfetto.dev)"
        )
    if metrics_path is not None:
        from repro.obs.metrics import report_metrics

        registry = report_metrics(report, registry=db.metrics)
        text = registry.to_prometheus()
        if metrics_path == "-":
            print(text, end="")
        else:
            with open(metrics_path, "w") as f:
                f.write(text)
            print(f"metrics: {len(registry.families())} families "
                  f"-> {metrics_path}")


def _cmd_trace(args: argparse.Namespace) -> int:
    dataset = load_dataset(
        args.dataset, size=args.size, n_queries=args.queries, seed=args.seed
    )
    config = HarmonyConfig(
        n_machines=args.nmachine,
        nlist=args.nlist,
        nprobe=args.nprobe,
        mode=args.mode,
        seed=args.seed,
    )
    db = HarmonyDB(dim=dataset.dim, config=config)
    db.build(dataset.base, sample_queries=dataset.queries)
    db.enable_tracing()
    db.attach_metrics()
    _, report = db.search(dataset.queries, k=args.k)
    totals = report.trace.category_totals()
    print(f"plan: {db.plan.describe()}")
    print(
        f"traced {report.n_queries} queries: {len(report.trace)} spans, "
        + ", ".join(f"{c} {s * 1e6:.0f} us" for c, s in totals.items())
    )
    _export_observability(db, report, args.output, args.metrics)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.cluster.cluster import Cluster
    from repro.core.cost_model import CostParameters
    from repro.core.planner import QueryPlanner
    from repro.index.ivf import IVFFlatIndex

    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    index = IVFFlatIndex(dim=dataset.dim, nlist=args.nlist, seed=args.seed)
    index.train(dataset.base)
    index.add(dataset.base)
    cluster = Cluster(args.nmachine)
    planner = QueryPlanner(
        index, CostParameters.from_cluster(cluster, alpha=args.alpha)
    )
    profile = planner.profile(dataset.queries, args.nprobe)
    decision = planner.choose(args.nmachine, Mode.HARMONY, profile)
    print(f"dataset {dataset.name}, {args.nmachine} machines:")
    for (b_vec, b_dim), cost in decision.evaluated:
        chosen = (
            " <== chosen"
            if (b_vec, b_dim)
            == (decision.plan.n_vector_shards, decision.plan.n_dim_blocks)
            else ""
        )
        print(
            f"  {b_vec} x {b_dim}: comp {cost.computation_seconds * 1e3:8.2f} ms  "
            f"comm {cost.communication_seconds * 1e3:7.2f} ms  "
            f"imbalance {cost.imbalance_seconds * 1e3:7.3f} ms  "
            f"total {cost.total * 1e3:8.2f} ms{chosen}"
        )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.bench.tuning import tune_nprobe
    from repro.index.ivf import IVFFlatIndex

    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    index = IVFFlatIndex(dim=dataset.dim, nlist=args.nlist, seed=args.seed)
    index.train(dataset.base)
    index.add(dataset.base)
    result = tune_nprobe(
        index, dataset.queries, target_recall=args.target_recall, k=args.k
    )
    print(f"dataset {dataset.name}, target recall@{args.k} >= "
          f"{args.target_recall}:")
    for nprobe, recall in result.trace:
        marker = " <== chosen" if nprobe == result.nprobe else ""
        print(f"  nprobe {nprobe:4d}: recall {recall:.3f}{marker}")
    if not result.target_met:
        print("  target not reachable; best candidate reported")
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from repro.core.capacity import plan_capacity
    from repro.index.ivf import IVFFlatIndex

    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    index = IVFFlatIndex(dim=dataset.dim, nlist=args.nlist, seed=args.seed)
    index.train(dataset.base)
    index.add(dataset.base)
    plan = plan_capacity(
        index,
        dataset.queries,
        target_recall=args.target_recall,
        target_qps=args.target_qps,
        k=args.k,
        seed=args.seed,
    )
    print(
        f"target: recall@{args.k} >= {args.target_recall}, "
        f">= {args.target_qps:,.0f} QPS"
    )
    for machines, qps in plan.trace:
        marker = " <== chosen" if machines == plan.n_machines else ""
        print(f"  {machines:3d} machines: {qps:>12,.0f} QPS{marker}")
    print(
        f"recommendation: {plan.n_machines} machines, nprobe "
        f"{plan.nprobe} ({plan.plan_summary})"
    )
    print(
        f"achieves recall {plan.achieved_recall:.3f} at "
        f"{plan.achieved_qps:,.0f} QPS"
        + ("" if plan.target_met else "  [target NOT met]")
    )
    return 0 if plan.target_met else 2


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve.harness import admission_study, throughput_study

    if args.smoke:
        # Operating point where coalescing clearly pays: pure vector
        # sharding parallelizes the fused shard-major batch scan, and
        # a finer list grid keeps per-query candidate sets small so
        # per-call dispatch overhead dominates the unbatched baseline.
        size = args.size if args.size is not None else 12_000
        n_queries = args.queries if args.queries is not None else 256
        nlist = args.nlist if args.nlist is not None else 256
        grid = tuple(args.grid) if args.grid is not None else (4, 1)
    else:
        size = args.size
        n_queries = args.queries if args.queries is not None else 512
        nlist = args.nlist if args.nlist is not None else 64
        grid = tuple(args.grid) if args.grid is not None else None
    dataset = load_dataset(
        args.dataset, size=size, n_queries=n_queries, seed=args.seed
    )
    config = HarmonyConfig(
        n_machines=args.nmachine,
        nlist=nlist,
        nprobe=args.nprobe,
        backend=args.backend,
        forced_grid=grid,
        seed=args.seed,
    )
    db = HarmonyDB(dim=dataset.dim, config=config)
    db.build(dataset.base, sample_queries=dataset.queries)
    print(
        f"dataset {dataset.name}: {dataset.size:,} x {dataset.dim}, "
        f"{dataset.n_queries} requests, backend {args.backend}, "
        f"plan {db.plan.describe()}"
    )
    overrides = {}
    if args.max_batch is not None:
        overrides["max_batch"] = args.max_batch
    elif args.smoke:
        overrides["max_batch"] = 64
    if args.slo_ms is not None:
        overrides["slo_ms"] = args.slo_ms
    study = throughput_study(
        db,
        dataset.queries,
        k=args.k,
        # The saturating row runs well past capacity so the coalescing
        # queue reaches steady state quickly and batches stay deep.
        fractions=(0.5, 1.0, 3.0) if args.smoke else (0.5, 1.0, 2.0),
        seed=args.seed,
        **overrides,
    )
    seq = study["sequential"]
    print(
        f"closed-loop unbatched: {seq['qps']:,.0f} QPS, "
        f"p50 {seq['p50_ms']:.2f} ms, p99 {seq['p99_ms']:.2f} ms"
    )
    print(
        f"{'arrival':<9} {'offered':>9} {'sustained':>10} {'x seq':>6} "
        f"{'batch':>6} {'p50 ms':>8} {'p99 ms':>8}"
    )
    for row in study["rows"]:
        print(
            f"{row['arrival']:<9} {row['offered_qps']:>9,.0f} "
            f"{row['sustained_qps']:>10,.0f} "
            f"{row['speedup_vs_sequential']:>6.2f} "
            f"{row['mean_batch_size']:>6.1f} "
            f"{row['p50_ms']:>8.2f} {row['p99_ms']:>8.2f}"
        )
    queue_depth = args.queue_depth if args.queue_depth is not None else 16
    policies = (
        (args.shed_policy,)
        if args.shed_policy is not None
        else ("reject", "shed_oldest", "degrade_nprobe")
    )
    admission = admission_study(
        db,
        dataset.queries,
        k=args.k,
        queue_depth=queue_depth,
        policies=policies,
        seed=args.seed,
        **overrides,
    )
    print(
        f"admission control at 6x sequential capacity, "
        f"queue depth {queue_depth}:"
    )
    for row in admission:
        print(
            f"  {row['policy']:<15} completed {row['completed']:>4} "
            f"rejected {row['rejected']:>4} shed {row['shed']:>4} "
            f"degraded {row['degraded']:>4} p99 {row['p99_ms']:>7.2f} ms "
            f"accounted {'yes' if row['accounted'] else 'NO'}"
        )
    db.close()
    failures = []
    if study["oracle_mismatches"]:
        failures.append(
            f"{study['oracle_mismatches']} responses mismatched the "
            "serial oracle"
        )
    failures.extend(
        f"admission accounting failed for {row['policy']}"
        for row in admission
        if not row["accounted"]
    )
    failures.extend(
        f"{row['oracle_mismatches']} degraded-path mismatches "
        f"({row['policy']})"
        for row in admission
        if row["oracle_mismatches"]
    )
    if args.smoke:
        speedup = study["speedup_at_saturation"]
        if speedup < 1.3:
            failures.append(
                f"coalescing speedup {speedup:.2f}x < 1.3x at "
                "saturating load"
            )
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(
            f"OK: coalescing {study['speedup_at_saturation']:.2f}x vs "
            "unbatched sequential at saturating load; all responses "
            "byte-identical to the serial oracle"
        )
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "capacity":
        return _cmd_capacity(args)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
