"""Extension experiment: latency under open-loop load.

Not a paper figure — the paper reports closed-loop throughput only —
but the standard serving-systems view of the same data: offered load
(Poisson arrivals) vs mean/p99 latency.

Two halves:

- the original *simulated* study (``test_latency_under_load``):
  Harmony's higher capacity pushes its hockey-stick to the right of
  vector partitioning's, so at any fixed offered load it serves with
  lower tail latency.
- a *host wall-clock* serving study (``main`` / ``--smoke``,
  ``test_serve_throughput``): unbatched-sequential vs
  server-coalesced QPS and p50/p99 under Poisson and bursty arrivals,
  plus admission-control behavior under overload. Emits
  ``results/BENCH_serve_throughput.json``. The smoke gate asserts
  (a) every served response is byte-identical to the per-query serial
  oracle, (b) coalescing sustains >= 1.3x the unbatched sequential
  QPS at saturating load, and (c) a bounded queue keeps the admitted
  p99 below the unbounded-queue reference while accounting for every
  submitted request. A smoke run, or its pytest entry, writes nothing.

Usage::

    PYTHONPATH=../src python bench_latency_under_load.py            # full
    PYTHONPATH=../src python bench_latency_under_load.py --smoke    # CI gate
"""

import argparse
import json
import os
import sys

import _common as c
from _serve_load import run_open_loop, run_sequential, throughput_study
from repro.validation import make_serial_oracle, verify_against_oracle
from repro.workload.generators import bursty_arrivals, poisson_arrivals

DATASET = "sift1m"
LOAD_FRACTIONS = [0.2, 0.5, 0.8, 1.1]

#: Host serving-study workloads. Pure vector sharding (grid Bv x 1)
#: parallelizes the fused shard-major batch scan cleanly, and a fine
#: list grid keeps candidate sets small so per-call dispatch overhead
#: dominates the unbatched baseline — the regime coalescing exists for.
SERVE_FULL = dict(
    size=30_000, n_requests=512, nlist=256, nprobe=8, k=10,
    grid=(4, 1), n_machines=4, backend="process", max_batch=64,
    fractions=(0.25, 0.5, 1.0, 2.0, 3.0), queue_depth=16,
)
SERVE_SMOKE = dict(
    size=12_000, n_requests=256, nlist=256, nprobe=8, k=10,
    grid=(4, 1), n_machines=4, backend="process", max_batch=64,
    fractions=(0.5, 1.0, 3.0), queue_depth=16,
)


def run_experiment():
    import numpy as np

    dataset = c.get_dataset(DATASET)
    harmony = c.deploy(DATASET, c.Mode.HARMONY)
    vector = c.deploy(DATASET, c.Mode.VECTOR)
    # Enough queries that the p99 is a stable statistic.
    queries = np.tile(dataset.queries, (5, 1))
    _, closed_vec = vector.search(queries, k=c.K)
    vector_capacity = closed_vec.qps  # fractions of the weaker engine

    rows = []
    for fraction in LOAD_FRACTIONS:
        rate = vector_capacity * fraction
        arrivals = poisson_arrivals(len(queries), rate, seed=31)
        _, h = harmony.search(queries, k=c.K, arrival_times=arrivals)
        _, v = vector.search(queries, k=c.K, arrival_times=arrivals)
        rows.append(
            (
                f"{fraction:.0%}",
                round(rate),
                round(h.mean_latency * 1e6, 1),
                round(h.latency_percentile(99) * 1e6, 1),
                round(v.mean_latency * 1e6, 1),
                round(v.latency_percentile(99) * 1e6, 1),
            )
        )
    # Same average load, bursty arrivals: burstiness hits the tail.
    rate = vector_capacity * 0.8
    arrivals = bursty_arrivals(
        len(queries), rate, burst_factor=10, burst_fraction=0.3, seed=31
    )
    _, h = harmony.search(queries, k=c.K, arrival_times=arrivals)
    _, v = vector.search(queries, k=c.K, arrival_times=arrivals)
    rows.append(
        (
            "80% bursty",
            round(rate),
            round(h.mean_latency * 1e6, 1),
            round(h.latency_percentile(99) * 1e6, 1),
            round(v.mean_latency * 1e6, 1),
            round(v.latency_percentile(99) * 1e6, 1),
        )
    )
    return rows


def test_latency_under_load(benchmark, capsys):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    text = c.format_table(
        [
            "offered load",
            "QPS",
            "harmony mean (us)",
            "harmony p99 (us)",
            "vector mean (us)",
            "vector p99 (us)",
        ],
        rows,
        title=f"latency under open-loop load ({DATASET}; load relative "
        "to vector capacity)",
    )
    c.save_result("latency_under_load.txt", text)
    with capsys.disabled():
        print("\n" + text)

    poisson_rows = rows[:-1]
    bursty_row = rows[-1]
    # Vector's latency rises steeply toward its capacity...
    assert poisson_rows[-1][5] > poisson_rows[0][5] * 2
    # ...while Harmony, with more headroom, stays low at every load and
    # beats vector's tail at the highest offered load.
    assert poisson_rows[-1][3] < poisson_rows[-1][5]
    # Burstiness at the same 80% average load inflates the p99 relative
    # to Poisson arrivals at 80%.
    same_load_poisson = poisson_rows[2]
    assert bursty_row[5] > same_load_poisson[5]


# ----------------------------------------------------------------------
# Host wall-clock serving study (open vs closed loop, real coalescing)
# ----------------------------------------------------------------------


def _serve_db(params):
    from repro.data.datasets import load_dataset

    dataset = load_dataset(
        DATASET,
        size=params["size"],
        n_queries=params["n_requests"],
        seed=c.SEED,
    )
    config = c.HarmonyConfig(
        n_machines=params["n_machines"],
        nlist=params["nlist"],
        nprobe=params["nprobe"],
        backend=params["backend"],
        forced_grid=params["grid"],
        seed=0,
    )
    db = c.HarmonyDB(dim=dataset.dim, config=config)
    db.build(dataset.base, sample_queries=dataset.queries)
    return db, dataset.queries


def run_serve_experiment(params, log=print):
    """Throughput study plus bounded-vs-unbounded admission study."""
    db, queries = _serve_db(params)
    failures: list[str] = []
    k = params["k"]
    try:
        study = throughput_study(
            db,
            queries,
            k=k,
            fractions=params["fractions"],
            seed=31,
            max_batch=params["max_batch"],
        )
        seq = study["sequential"]
        log(
            f"  sequential baseline: {seq['qps']:,.0f} QPS, "
            f"p99 {seq['p99_ms']:.2f} ms"
        )
        for row in study["rows"]:
            log(
                f"  {row['arrival']:<8} {row['offered_qps']:>8,.0f} offered: "
                f"{row['sustained_qps']:>8,.0f} sustained "
                f"({row['speedup_vs_sequential']:.2f}x), batch "
                f"{row['mean_batch_size']:.1f}, p99 {row['p99_ms']:.2f} ms "
                f"(median {row['queue_p50_ms']:.2f} queued + "
                f"{row['service_p50_ms']:.2f} in service)"
            )
        if study["oracle_mismatches"]:
            failures.append(
                f"{study['oracle_mismatches']} served responses diverge "
                "from the per-query serial oracle"
            )

        # Admission control under true overload: coalescing itself
        # roughly doubles capacity, so the overload rate must clear the
        # *coalesced* ceiling, not just the sequential one. One
        # unbounded reference queue, then each policy on a small
        # bounded queue fed the identical arrival schedule.
        oracle = make_serial_oracle(db)
        probe = run_sequential(db, queries[:64], k=k)
        rate = max(probe.qps, 1.0) * 6.0
        arrivals = poisson_arrivals(len(queries), rate, seed=31)
        server = db.serve(
            max_batch=params["max_batch"], queue_depth=len(queries)
        )
        try:
            reference = run_open_loop(server, queries, arrivals, k=k)
        finally:
            server.close()
        log(
            f"  overload 6x seq capacity, unbounded queue: "
            f"p99 {reference.percentile_ms(99):.2f} ms"
        )
        admission = {"reference": reference.to_dict(), "policies": []}
        for policy in ("reject", "shed_oldest", "degrade_nprobe"):
            server = db.serve(
                max_batch=params["max_batch"],
                queue_depth=params["queue_depth"],
                shed_policy=policy,
            )
            try:
                bounded = run_open_loop(server, queries, arrivals, k=k)
                stats = server.stats.to_dict()
            finally:
                server.close()
            mismatches = verify_against_oracle(
                bounded.responses, queries, oracle
            )
            row = bounded.to_dict()
            row["policy"] = policy
            row["queue_depth"] = params["queue_depth"]
            row["accounted"] = bounded.accounted
            row["max_queue_depth"] = stats["max_queue_depth"]
            admission["policies"].append(row)
            log(
                f"  overload 6x, {policy:<15}: completed "
                f"{bounded.completed:>4}, dropped "
                f"{bounded.rejected + bounded.shed:>4}, degraded "
                f"{bounded.degraded:>4}, p99 "
                f"{bounded.percentile_ms(99):.2f} ms"
            )
            if not bounded.accounted:
                failures.append(
                    f"admission accounting leaked requests ({policy}): "
                    f"{bounded.completed} + {bounded.rejected} + "
                    f"{bounded.shed} != {bounded.n_requests}"
                )
            if mismatches:
                failures.append(
                    f"{len(mismatches)} responses diverge from the "
                    f"oracle under {policy}"
                )
            if bounded.completed == bounded.n_requests and policy in (
                "reject",
                "shed_oldest",
            ):
                failures.append(
                    f"{policy} shed nothing at 6x overload with queue "
                    f"depth {params['queue_depth']} — not saturating"
                )
            # The bounded queue is what keeps the tail flat: admitted
            # p99 must stay below the unbounded reference tail.
            if bounded.percentile_ms(99) >= reference.percentile_ms(99):
                failures.append(
                    f"{policy}: bounded-queue p99 "
                    f"{bounded.percentile_ms(99):.1f} ms not below the "
                    f"unbounded reference "
                    f"{reference.percentile_ms(99):.1f} ms"
                )
    finally:
        db.close()
    return study, admission, failures


def save_serve_outputs(params, study, admission, smoke):
    """The table; a full run also writes it and the JSON to
    ``results/``. A smoke run's are printed only, so the committed
    full-run files stay what the full run wrote."""
    payload = {
        "workload": {
            key: params[key]
            for key in (
                "size", "n_requests", "nlist", "nprobe", "k",
                "n_machines", "backend", "max_batch", "queue_depth",
            )
        }
        | {"grid": list(params["grid"]), "smoke": smoke,
           "cpu_count": os.cpu_count()},
        "sequential": study["sequential"],
        "open_loop": study["rows"],
        "speedup_at_saturation": study["speedup_at_saturation"],
        "oracle_mismatches": study["oracle_mismatches"],
        "admission": admission,
    }
    seq = study["sequential"]
    rows = [
        (
            "closed seq", "--", round(seq["qps"]), "1.00", "1.0",
            round(seq["p50_ms"], 2), round(seq["p99_ms"], 2),
            "0.0", round(seq["p50_ms"], 2),
        )
    ]
    rows += [
        (
            row["arrival"],
            round(row["offered_qps"]),
            round(row["sustained_qps"]),
            f"{row['speedup_vs_sequential']:.2f}",
            f"{row['mean_batch_size']:.1f}",
            round(row["p50_ms"], 2),
            round(row["p99_ms"], 2),
            round(row["queue_p50_ms"], 2),
            round(row["service_p50_ms"], 2),
        )
        for row in study["rows"]
    ]
    table = c.format_table(
        [
            "mode", "offered QPS", "sustained QPS", "x seq",
            "batch", "p50 (ms)", "p99 (ms)",
            "queued p50 (ms)", "in service p50 (ms)",
        ],
        rows,
        title=(
            f"serving throughput: unbatched sequential vs coalescing "
            f"server ({DATASET} {params['size']:,} x "
            f"{params['backend']} backend, host wall-clock)"
        ),
    )
    if not smoke:
        c.save_result(
            "BENCH_serve_throughput.json", json.dumps(payload, indent=2)
        )
        c.save_result("serve_throughput.txt", table)
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload; gate on oracle identity, coalescing "
        "speedup, and admission-control accounting",
    )
    args = parser.parse_args(argv)
    params = SERVE_SMOKE if args.smoke else SERVE_FULL
    label = "smoke" if args.smoke else "full"
    print(
        f"serving study ({label}): {DATASET} {params['size']:,} vectors, "
        f"{params['n_requests']} requests, backend {params['backend']}, "
        f"grid {params['grid'][0]}x{params['grid'][1]}, "
        f"max batch {params['max_batch']}"
    )
    study, admission, failures = run_serve_experiment(params)
    print("\n" + save_serve_outputs(params, study, admission, args.smoke))
    if args.smoke and study["speedup_at_saturation"] < 1.3:
        failures.append(
            f"coalescing speedup {study['speedup_at_saturation']:.2f}x "
            "< 1.3x at saturating load"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"OK: coalescing {study['speedup_at_saturation']:.2f}x vs "
        "unbatched sequential; responses byte-identical to the serial "
        "oracle; admission control bounded the overloaded tail"
    )
    return 0


def test_serve_throughput(benchmark, capsys):
    """Pytest entry point (smoke workload) for the benchmark suite."""
    study, admission, failures = benchmark.pedantic(
        lambda: run_serve_experiment(SERVE_SMOKE, log=lambda *_: None),
        rounds=1,
        iterations=1,
    )
    assert not failures, failures
    with capsys.disabled():
        print(save_serve_outputs(SERVE_SMOKE, study, admission, smoke=True))


if __name__ == "__main__":
    sys.exit(main())
