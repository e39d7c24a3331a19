"""Command-line interface mirroring the paper's parameters (Section 5).

The paper's binary exposes ``-NMachine``, ``-Mode``,
``-Pruning_Configuration``, ``-Indexing_Parameters`` and ``-alpha``;
this CLI exposes the same knobs over the dataset analogues::

    python -m repro run --dataset sift1m --nmachine 4 --mode harmony \
        --nlist 64 --nprobe 8 --k 10

    python -m repro datasets          # list available analogues
    python -m repro plan --dataset msong --nmachine 4   # planner view

``run --trace FILE --metrics FILE`` also records the run's spans and
live metrics and writes them as Chrome trace JSON and Prometheus text.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB
from repro.data.datasets import DATASET_REGISTRY, available_datasets, load_dataset
from repro.data.ground_truth import exact_knn, recall_at_k


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
        choices=["sim", "process", "serial"],
        help="execution backend: simulated cluster (timing model), "
        "worker processes over shared memory, or the serial reference "
        "loop",
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
        help="record per-query spans, print their per-category totals "
        "and write a Chrome trace_event JSON timeline (loadable in "
        "about:tracing / Perfetto)",
    )
    run.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="attach the live metrics registry and write a Prometheus "
        "text dump of the run's metrics ('-' for stdout)",
    )
    run.add_argument("--seed", type=int, default=0)

    sub.add_parser("datasets", help="list dataset analogues")

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
    if args.metrics is not None:
        db.attach_metrics()
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
    if args.trace is not None and report.trace is not None:
        totals = report.trace.category_totals()
        print(
            "trace totals: "
            + ", ".join(f"{c} {s * 1e6:.0f} us" for c, s in totals.items())
        )
        report.trace.save_chrome(args.trace)
        print(
            f"trace: {len(report.trace)} spans -> {args.trace} "
            "(load in about:tracing or https://ui.perfetto.dev)"
        )
    if args.metrics is not None:
        from repro.obs.metrics import report_metrics

        registry = report_metrics(report, registry=db.metrics)
        text = registry.to_prometheus()
        if args.metrics == "-":
            print(text, end="")
        else:
            with open(args.metrics, "w") as f:
                f.write(text)
            print(f"metrics: {len(registry.families())} families "
                  f"-> {args.metrics}")
    db.close()
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
    from repro.core.capacity import tune_nprobe
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


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "capacity":
        return _cmd_capacity(args)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
