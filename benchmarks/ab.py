#!/usr/bin/env python3
"""Paired A/B runs of the perf ledger: a base commit against the tree.

A single ledger run on a small shared box drifts by more than most
changes move a metric, so a claim is read off *pairs*: the unchanged
runner ``benchmarks/ledger/run.py`` runs once on the base and once on
the head, in fresh processes, the order alternating ABBA (pair 0 runs
base then head, pair 1 head then base, ...) so a drift of the machine
lands on both sides alike. Each side runs from a temporary ``git
worktree`` of its own, side by side in one directory and removed on
every way out: the base ref, and the head a commit of the working tree
(``git stash create``; ``HEAD`` when the tree is clean), so neither
side runs from a tree the other lacks, bytecode caches included.
Untracked files are not part of the head; ``git add`` them first. Each
run takes the runner's own length, the benchmark's ``run_seconds``::

    python benchmarks/ab.py --base HEAD~1 --workload batch_fp32 \\
        --seed 7 --pairs 10

For each metric the table gives each side's median, the base's
interquartile range, the head/base ratio of the medians, and how many
pairs the head won (by the metric's ``better`` in ``BENCHMARK.json``).
A metric is marked ``claim`` when, over at least ten pairs, the head
won at least nine in ten and the medians differ by more than the base
IQR; anything less is noise at this N. ``--base HEAD`` runs the
committed tree against the working tree — with no local change, an A/A
run that shows the box's own spread.

``--trace 1`` pairs report the per-layer metrics instead and compare
every pair's ``result_digest``. The exit status is non-zero when a run
fails, reports ``correct`` false or ``failed`` > 0, or (``--trace 1``)
the two sides' digests differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks", "ledger", "run.py")
BASE, HEAD = "base", "head"
#: A metric counts as a claim only over at least CLAIM_PAIRS pairs, of
#: which the head won at least the share CLAIM_WINS.
CLAIM_PAIRS, CLAIM_WINS = 10, 0.9


class Run(NamedTuple):
    """One ledger run's outcome: its metrics, whether its answers
    checked out, and its ``result_digest`` (``--trace 1`` only)."""

    ok: bool
    metrics: dict
    digest: "str | None" = None
    note: str = ""


def order(pairs: int) -> "list[tuple[int, str]]":
    """``(pair, side)`` in run order: ABBA, base first."""
    runs = []
    for pair in range(pairs):
        sides = (BASE, HEAD) if pair % 2 == 0 else (HEAD, BASE)
        runs.extend((pair, side) for side in sides)
    return runs


def run_pairs(
    runner: "Callable[[str, str, int], Run]",
    workload: str,
    seed: int,
    pairs: int,
) -> "dict[str, list[Run]]":
    """``pairs`` runs per side of one workload and seed, in ABBA order;
    ``runner(side, workload, seed)`` makes one run."""
    runs: "dict[str, list[Run]]" = {BASE: [None] * pairs, HEAD: [None] * pairs}
    for pair, side in order(pairs):
        runs[side][pair] = runner(side, workload, seed)
    return runs


def directions(benchmark: dict) -> "dict[str, str]":
    """``metric -> better`` for every metric ``BENCHMARK.json`` names."""
    return {
        metric["name"]: metric["better"]
        for family in ("end_to_end", "per_layer")
        for metric in benchmark.get(family, ())
    }


def iqr(values: "list[float]") -> float:
    """Interquartile range (linear interpolation, as numpy's default)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def head_wins(base: float, head: float, better: str) -> bool:
    return head < base if better == "lower" else head > base


class Row(NamedTuple):
    metric: str
    base_median: float
    head_median: float
    base_iqr: float
    ratio: float
    wins: int
    pairs: int
    claim: bool


def compare(runs: "dict[str, list[Run]]", better: "dict[str, str]") -> "list[Row]":
    """One :class:`Row` per metric every run reported and that has a
    direction; a failed run's pair is left out."""
    kept = [
        (b, h) for b, h in zip(runs[BASE], runs[HEAD]) if b.ok and h.ok
    ]
    if not kept:
        return []
    names = [
        name for name in kept[0][0].metrics
        if name in better and all(
            name in b.metrics and name in h.metrics for b, h in kept
        )
    ]
    rows = []
    for name in names:
        base = [b.metrics[name] for b, _ in kept]
        head = [h.metrics[name] for _, h in kept]
        base_median = statistics.median(base)
        head_median = statistics.median(head)
        wins = sum(head_wins(b, h, better[name]) for b, h in zip(base, head))
        spread = iqr(base)
        rows.append(Row(
            name, base_median, head_median, spread,
            head_median / base_median if base_median else float("nan"),
            wins, len(kept),
            len(kept) >= CLAIM_PAIRS and wins >= CLAIM_WINS * len(kept)
            and abs(head_median - base_median) > spread,
        ))
    return rows


def failures(runs: "dict[str, list[Run]]") -> "list[str]":
    """What makes the comparison fail: a run that failed or whose
    answers did not check out, and a pair whose digests differ."""
    found = []
    for side in (BASE, HEAD):
        for pair, run in enumerate(runs[side]):
            if not run.ok:
                found.append(f"pair {pair} {side}: {run.note or 'not correct'}")
    for pair, (b, h) in enumerate(zip(runs[BASE], runs[HEAD])):
        if b.digest is not None and h.digest is not None and b.digest != h.digest:
            found.append(
                f"pair {pair}: result_digest differs ({b.digest} != {h.digest})"
            )
    return found


def table(rows: "list[Row]") -> str:
    lines = [
        f"{'metric':28s} {'base med':>12s} {'head med':>12s} "
        f"{'base IQR':>11s} {'head/base':>9s} {'wins':>6s}"
    ]
    for row in rows:
        lines.append(
            f"{row.metric:28s} {row.base_median:12.6g} {row.head_median:12.6g} "
            f"{row.base_iqr:11.4g} {row.ratio:9.4f} "
            f"{row.wins:>3d}/{row.pairs:<2d}" + ("  claim" if row.claim else "")
        )
    return "\n".join(lines)


def parse_run(returncode: int, stdout: str, stderr: str = "") -> Run:
    """A :class:`Run` from the ledger runner's output: its last line is
    the JSON record, and ``--trace 1`` prints the digest in its
    ``# detail`` line."""
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (stderr or stdout).strip().splitlines()[-1:] or ["no output"]
        return Run(False, {}, note=f"exit {returncode}: {tail[0]}")
    digest = None
    for line in lines:
        if line.startswith("# detail "):
            digest = json.loads(line[len("# detail "):]).get("result_digest")
    ok = (
        returncode == 0 and bool(record.get("correct"))
        and int(record.get("failed", 1)) == 0
    )
    metrics = {
        name: float(value["value"])
        for name, value in record.get("metrics", {}).items()
    }
    note = "" if ok else (
        f"exit {returncode}, correct {record.get('correct')}, "
        f"failed {record.get('failed')}"
    )
    return Run(ok, metrics, digest, note)


def ledger_runner(trees: "dict[str, Path]", trace: int, smoke: bool,
                  timeout: float = 900.0):
    """A runner that runs each side's own ledger in a fresh process."""

    def run(side: str, workload: str, seed: int) -> Run:
        command = [
            sys.executable, str(trees[side] / RUNNER), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace),
        ] + (["--smoke"] if smoke else [])
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, cwd=trees[side],
        ) as child:
            try:
                stdout, stderr = child.communicate(timeout=timeout)
            except BaseException as stop:
                # SIGTERM lets the runner stop its own pool workers.
                child.terminate()
                try:
                    child.communicate(timeout=60)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.communicate()
                if isinstance(stop, subprocess.TimeoutExpired):
                    return Run(False, {}, note=f"timed out after {timeout:g} s")
                raise
        return parse_run(child.returncode, stdout, stderr)

    return run


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(root), *args], check=True, capture_output=True,
        text=True,
    ).stdout.strip()


@contextmanager
def checkouts(root: Path, base: str):
    """``{BASE: tree, HEAD: tree}``: ``base`` and a commit of ``root``'s
    working tree, each checked out into a temporary worktree that is
    removed however the block ends."""
    commits = {
        BASE: _git(root, "rev-parse", "--verify", f"{base}^{{commit}}"),
        HEAD: _git(root, "stash", "create") or _git(root, "rev-parse", "HEAD"),
    }
    untracked = _git(root, "ls-files", "--others", "--exclude-standard")
    if untracked:
        print(f"# untracked files are not part of the head: "
              f"{' '.join(untracked.splitlines())}", flush=True)
    with tempfile.TemporaryDirectory(prefix="ab_") as scratch:
        trees = {side: Path(scratch, side) for side in commits}
        try:
            for side, commit in commits.items():
                _git(root, "worktree", "add", "--detach", "--quiet",
                     str(trees[side]), commit)
            yield trees
        finally:
            for tree in trees.values():
                subprocess.run(
                    ["git", "-C", str(root), "worktree", "remove", "--force",
                     str(tree)], capture_output=True,
                )
            _git(root, "worktree", "prune")


def compare_sides(args, runner, benchmark: dict) -> int:
    """Every workload and seed of ``args`` as ``args.pairs`` pairs of
    ``runner``; prints one table each and returns the exit status."""
    better = directions(benchmark)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    status = 0
    for workload in workloads:
        for seed in args.seed:
            print(f"== {workload} seed={seed} pairs={args.pairs} "
                  f"trace={args.trace} base={args.base}", flush=True)
            runs = run_pairs(runner, workload, seed, args.pairs)
            print(table(compare(runs, better)), flush=True)
            for failure in failures(runs):
                print(f"FAILED {failure}", flush=True)
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="git ref to compare the tree against")
    parser.add_argument("--workload", action="append",
                        help="workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, action="append",
                        help="benchmark seed (repeatable; default: 7)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="the ledger's self-test sizes")
    args = parser.parse_args(argv)
    args.seed = args.seed or [7]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    with checkouts(ROOT, args.base) as trees:
        runner = ledger_runner(trees, args.trace, args.smoke)
        return compare_sides(args, runner, benchmark)


if __name__ == "__main__":
    import signal

    # Stopped from outside, unwind so the worktree is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
