"""The paired A/B tool (``benchmarks/ab.py``) on a fake runner: run
order, statistics, direction, failure propagation and the two sides'
worktrees, in seconds."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))
import ab  # noqa: E402

BENCHMARK = {
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "p50_ms", "better": "lower"},
        {"name": "throughput", "better": "higher"},
    ],
    "per_layer": [{"name": "heap.push_s", "better": "lower"}],
}


class FakeRunner:
    """Hands out scripted runs per side, recording the call order."""

    def __init__(self, base, head):
        self.scripts = {ab.BASE: list(base), ab.HEAD: list(head)}
        self.calls = []

    def __call__(self, side, workload, seed):
        self.calls.append((side, workload, seed))
        return self.scripts[side].pop(0)


def run(p50, throughput=100.0, ok=True, digest=None):
    return ab.Run(ok, {"p50_ms": p50, "throughput": throughput}, digest)


def args(**overrides):
    values = dict(workload=["w1"], seed=[7], pairs=3, trace=0, base="HEAD")
    values.update(overrides)
    return argparse.Namespace(**values)


def test_pairs_alternate_abba():
    assert ab.order(4) == [
        (0, "base"), (0, "head"), (1, "head"), (1, "base"),
        (2, "base"), (2, "head"), (3, "head"), (3, "base"),
    ]
    runner = FakeRunner([run(i) for i in range(3)], [run(9) for _ in range(3)])
    runs = ab.run_pairs(runner, "w1", 7, 3)
    assert [side for side, *_ in runner.calls] == [
        "base", "head", "head", "base", "base", "head",
    ]
    # Each side's runs are filed by pair, whatever order they ran in.
    assert [r.metrics["p50_ms"] for r in runs[ab.BASE]] == [0, 1, 2]


def test_statistics_of_each_metric():
    runs = {
        ab.BASE: [run(1.0, 10), run(2.0, 20), run(3.0, 30), run(4.0, 40),
                  run(5.0, 50)],
        ab.HEAD: [run(0.5, 11), run(1.5, 19), run(2.5, 31), run(3.5, 41),
                  run(6.0, 52)],
    }
    rows = {row.metric: row for row in ab.compare(runs, ab.directions(BENCHMARK))}
    p50 = rows["p50_ms"]
    assert (p50.base_median, p50.head_median) == (3.0, 2.5)
    assert p50.base_iqr == pytest.approx(2.0)   # quartiles 2 and 4
    assert p50.ratio == pytest.approx(2.5 / 3.0)
    assert (p50.wins, p50.pairs) == (4, 5)
    assert not p50.claim          # 4 of 5 wins, and 0.5 < IQR
    assert rows["throughput"].wins == 4   # higher is better here


def test_direction_decides_a_win():
    assert ab.head_wins(2.0, 1.0, "lower")
    assert not ab.head_wins(2.0, 1.0, "higher")
    assert ab.head_wins(1.0, 2.0, "higher")
    assert not ab.head_wins(1.0, 1.0, "lower")   # a tie is no win


def test_a_claim_needs_nine_wins_in_ten_and_more_than_the_iqr():
    base = [run(1.0 + 0.01 * i) for i in range(10)]
    head = [run(0.5 + 0.01 * i) for i in range(10)]
    (row,) = [
        r for r in ab.compare({ab.BASE: base, ab.HEAD: head},
                              ab.directions(BENCHMARK))
        if r.metric == "p50_ms"
    ]
    assert row.wins == 10 and row.claim
    head[0] = head[1] = run(9.0)
    (row,) = [
        r for r in ab.compare({ab.BASE: base, ab.HEAD: head},
                              ab.directions(BENCHMARK))
        if r.metric == "p50_ms"
    ]
    assert row.wins == 8 and not row.claim
    (row,) = [
        r for r in ab.compare({ab.BASE: base[2:], ab.HEAD: head[2:]},
                              ab.directions(BENCHMARK))
        if r.metric == "p50_ms"
    ]
    assert row.wins == row.pairs == 8 and not row.claim   # too few pairs


def test_a_metric_without_a_direction_is_left_out():
    runs = {ab.BASE: [ab.Run(True, {"p50_ms": 1.0, "extra": 1.0})],
            ab.HEAD: [ab.Run(True, {"p50_ms": 0.9, "extra": 2.0})]}
    assert [r.metric for r in ab.compare(runs, ab.directions(BENCHMARK))] == [
        "p50_ms"
    ]


def test_a_failed_run_fails_the_comparison(capsys):
    runner = FakeRunner(
        [run(1.0), run(1.0, ok=False), run(1.0)], [run(0.9)] * 3
    )
    assert ab.compare_sides(args(), runner, BENCHMARK) == 1
    out = capsys.readouterr().out
    assert "FAILED pair 1 base" in out
    # The failed pair is dropped from the statistics, not counted.
    assert " 2/2" in out


def test_a_clean_comparison_exits_zero_over_every_workload(capsys):
    runner = FakeRunner([run(1.0)] * 4, [run(0.9)] * 4)
    assert ab.compare_sides(args(workload=None, pairs=2), runner, BENCHMARK) == 0
    assert {w for _, w, _ in runner.calls} == {"w1", "w2"}
    assert "FAILED" not in capsys.readouterr().out


def test_a_digest_mismatch_fails():
    runs = {ab.BASE: [run(1.0, digest="aa")], ab.HEAD: [run(1.0, digest="bb")]}
    assert ab.failures(runs) == ["pair 0: result_digest differs (aa != bb)"]
    runs[ab.HEAD] = [run(1.0, digest="aa")]
    assert ab.failures(runs) == []


def record(correct=True, failed=0, **metrics):
    return json.dumps({
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()},
    })


def test_parse_run_reads_the_last_line_and_the_digest():
    stdout = "\n".join([
        "# ledger batch_fp32 seed=7",
        '# detail {"result_digest": "abc123", "other": 1}',
        "p50_ms  0.7 ms",
        record(p50_ms=0.7),
    ])
    parsed = ab.parse_run(0, stdout)
    assert parsed.ok and parsed.metrics == {"p50_ms": 0.7}
    assert parsed.digest == "abc123"


@pytest.mark.parametrize(
    "code, stdout",
    [
        (1, record(correct=False, p50_ms=0.7)),
        (0, record(failed=2, p50_ms=0.7)),
        (2, "Traceback (most recent call last):\nboom"),
        (0, ""),
    ],
)
def test_parse_run_flags_what_did_not_check_out(code, stdout):
    parsed = ab.parse_run(code, stdout, "")
    assert not parsed.ok and parsed.note


#: A stand-in ledger runner: reports the ``value`` file of its own tree.
FAKE_LEDGER = """import json, pathlib
value = float(pathlib.Path(__file__).resolve().parents[2].joinpath("value").read_text())
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"p50_ms": {"value": value, "unit": "ms"}}}))
"""


def test_each_side_runs_from_a_worktree_of_its_own(tmp_path):
    root = tmp_path / "repo"
    (root / ab.RUNNER).parent.mkdir(parents=True)
    (root / ab.RUNNER).write_text(FAKE_LEDGER)
    (root / "value").write_text("1.0")

    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], check=True,
                              capture_output=True, text=True).stdout

    git("init", "-q")
    git("config", "user.name", "ab test")
    git("config", "user.email", "ab@example.invalid")
    git("add", ".")
    git("commit", "-qm", "base")
    (root / "value").write_text("0.5")   # the uncommitted change is the head
    with ab.checkouts(root, "HEAD") as trees:
        assert root not in trees.values()
        assert trees[ab.BASE].parent == trees[ab.HEAD].parent
        runs = ab.run_pairs(ab.ledger_runner(trees, 0, False), "w1", 7, 2)
    assert [r.metrics for r in runs[ab.BASE]] == [{"p50_ms": 1.0}] * 2
    assert [r.metrics for r in runs[ab.HEAD]] == [{"p50_ms": 0.5}] * 2
    assert not any(tree.exists() for tree in trees.values())
    assert len(git("worktree", "list").splitlines()) == 1
    assert git("stash", "list") == ""   # the head commit is no stash entry

    git("checkout", "--", "value")   # a clean tree: the head is HEAD
    with ab.checkouts(root, "HEAD") as trees:
        assert {side: (tree / "value").read_text()
                for side, tree in trees.items()} == {ab.BASE: "1.0",
                                                     ab.HEAD: "1.0"}
    assert len(git("worktree", "list").splitlines()) == 1
