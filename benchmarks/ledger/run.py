#!/usr/bin/env python3
"""Host-path perf ledger runner.

One run (what the driver calls)::

    python3 benchmarks/ledger/run.py --workload batch_fp32 --seed 7 \\
        --seconds 8 --trace 0

prints every metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The whole set::

    python3 benchmarks/ledger/run.py --all --seed 7 [--repeat 2]

runs every workload both ways (each run in a process of its own, so
peak RSS and the pinned BLAS threads are per run) and prints the table.
With ``--repeat 2`` it takes two sets in turns (an end-to-end cell is
the median of three runs), writes ``results/repeatability.json``, and
exits non-zero if any cell of the two sets differs by more than its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# Pinned before numpy loads: the parallelism the ledger measures is the
# program's own pools, not the BLAS library's.
PINNED = {
    name: os.environ.setdefault(name, "1")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
DEFAULT_SECONDS = 8.0   # run_seconds in BENCHMARK.json


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _children() -> "list[int]":
    """Pids whose parent is this process, read off /proc."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue   # gone between listdir and read
        # pid (comm) state ppid ...; comm may hold spaces and brackets
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``db.close()`` joins the pool workers, but ``multiprocessing`` also
    starts a resource tracker for the pool's shared segments and locks,
    and that one only ends when this process's end closes its pipe:
    nobody waits for it, so it outlives the run. Close the pipe and wait
    here, then kill and reap whatever child is still there (a worker a
    failed pass left behind), so that no path out of a run leaves one.
    """
    import gc
    import signal
    from multiprocessing import resource_tracker

    gc.collect()   # a dropped deployment unlinks its segments now, not at exit
    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if fd is not None:
        tracker._fd = tracker._pid = None
        os.close(fd)                  # EOF on its pipe is its stop signal
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def run_one(args) -> int:
    import signal

    # A run told to stop unwinds like an interrupted one, so the pools
    # close and the finally below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _run_one(args)
    finally:
        stop_children()


def _run_one(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import measure
    import schema

    if args.workload not in dict(schema.WORKLOADS):
        print(f"ledger: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out = measure.run(
        args.workload, args.seed, args.seconds, args.trace, args.smoke
    )
    env = measure.environment(args.seed, args.seconds, PINNED)
    correct = out["failed"] == 0
    print(f"# ledger {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print(f"# env {json.dumps(env)}")
    print(f"# detail {json.dumps(out['detail'], default=float)}")
    for name, value in out["metrics"].items():
        print(f"{name:28s} {_fmt(float(value)):>14s} {schema.UNITS[name]}")
    print(f"attempted {out['attempted']}  failed {out['failed']}  "
          f"correct {correct}")
    measure.RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "trace": args.trace, "env": env,
        "correct": correct, "attempted": out["attempted"],
        "failed": out["failed"], "metrics": out["metrics"],
        "detail": out["detail"],
    }
    path = measure.RESULTS / f"run_{args.workload}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": schema.UNITS[name]}
            for name, value in out["metrics"].items()
        },
    }))
    # A failed check is a failed run: the driver must not read a number
    # off a pass whose answers were wrong.
    return 0 if correct else 1


# ----------------------------------------------------------------------
# --all / --repeat
# ----------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-4000:])
        raise SystemExit(f"ledger: {workload} trace={trace} exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


#: Untraced runs behind each end-to-end cell of a set (their median).
RUNS_PER_SET = 3


def run_sets(seed: int, seconds: float, smoke: bool, repeat: int) -> "list[dict]":
    """``repeat`` sets of {workload: {metric: value}}. An end-to-end cell
    is the median of ``RUNS_PER_SET`` untraced runs; a per-layer cell is
    one traced run. The sets are taken in turns, run by run, so a drift
    of the machine lands on all of them."""
    import statistics

    import schema

    sets: list[dict] = [{} for _ in range(repeat)]
    for workload, _why in schema.WORKLOADS:
        for trace, runs in ((0, RUNS_PER_SET), (1, 1)):
            lines: list[list] = [[] for _ in sets]
            for _ in range(runs):
                for i in range(repeat):
                    lines[i].append(_child(workload, seed, seconds, trace, smoke))
            for i, table in enumerate(sets):
                units = {k: v["unit"] for k, v in lines[i][0]["metrics"].items()}
                row = table.setdefault(workload, {})
                row.update({
                    name: statistics.median(
                        line["metrics"][name]["value"] for line in lines[i])
                    for name in units
                })
                print(f"== {workload} trace={trace} set={i} runs={runs} attempted="
                      f"{lines[i][0]['attempted']} failed={lines[i][0]['failed']}",
                      flush=True)
                for name, unit in units.items():
                    print(f"   {name:28s} {_fmt(row[name]):>14s} {unit}")
    for i, table in enumerate(sets):
        speedup = (table["batch_process"]["throughput"]
                   / table["batch_fp32"]["throughput"])
        table["batch_process"]["backend.speedup_vs_serial"] = speedup
        print(f"== set={i} backend.speedup_vs_serial {_fmt(speedup)} ratio "
              f"(batch_process / batch_fp32 throughput)")
    return sets


def repeatability(sets: "list[dict]", seed: int, seconds: float) -> dict:
    """Per (workload, metric): every set's value, their relative spread,
    the bound, and whether the sets stay inside it. Seed-determined
    figures have bound 0 here: they must agree exactly."""
    import schema

    bounds = {n: bound for n, _u, _b, bound in schema.END_TO_END}
    bounds.update(dict.fromkeys(schema.EXACT, 0.0))
    rows = []
    for workload, _why in schema.WORKLOADS:
        names = list(bounds)
        if workload in schema.SINGLE_THREADED:
            names += schema.EXACT_COUNTS
        for name in names:
            bound = bounds.get(name, 0.0)
            values = [s[workload][name] for s in sets]
            mean = sum(values) / len(values)
            spread = (max(values) - min(values)) / mean if mean else 0.0
            rows.append({
                "workload": workload, "metric": name, "values": values,
                "spread": spread, "bound": bound, "within": spread <= bound,
            })
            print(f"{workload:14s} {name:24s} "
                  + " ".join(f"{_fmt(v):>11s}" for v in values)
                  + f"  spread {spread:6.3f}  bound {bound:.2f}"
                  + ("" if spread <= bound else "  OUTSIDE"))
    return {"seed": seed, "seconds": seconds, "runs_per_set": RUNS_PER_SET,
            "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizes (seconds, not minutes)")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload NAME and --all")
    if not args.all:
        return run_one(args)
    sys.path.insert(0, str(HERE))
    sets = run_sets(args.seed, args.seconds, args.smoke, args.repeat)
    if args.repeat == 1:
        return 0
    report = repeatability(sets, args.seed, args.seconds)
    path = HERE / "results" / "repeatability.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path.relative_to(HERE.parents[1])}")
    outside = [r for r in report["rows"] if not r["within"]]
    if outside:
        print(f"ledger: {len(outside)} of {len(report['rows'])} cells OUTSIDE "
              f"their bound", file=sys.stderr)
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
