"""Self-test of the perf ledger (``pytest benchmarks/ledger -q``).

Runs at ``--smoke`` sizes, so it checks the ledger's *mechanics* — names,
determinism of the work counts, the result-line contract — and says
nothing about speed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import schema  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE_SECONDS = 2.0


@pytest.fixture(scope="module", autouse=True)
def _no_process_left_by_the_tests():
    """The in-process tests start pools here; end their resource tracker
    with the module, as a run does."""
    yield
    import run

    run.stop_children()


def test_names_units_and_benchmark_json_agree():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == schema.benchmark_json(int(wl.REFERENCE_SECONDS))
    names = [n for n, _ in schema.WORKLOADS]
    names += [n for n, *_ in schema.END_TO_END + schema.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(u) for u in schema.UNITS.values())
    assert all("\n" not in why and len(why) <= 200 for _, why in schema.WORKLOADS)
    assert set(wl.CONFIGS) == set(wl.KINDS) == {n for n, _ in schema.WORKLOADS}
    assert "setup_s" in schema.UNITS
    assert len(schema.PER_LAYER) <= 128
    assert all(0 <= bound <= 0.25 for *_, bound in schema.END_TO_END)


def test_inputs_follow_the_seed_and_nothing_else_reaches_the_program():
    one = wl.make_inputs("batch", 1, wl.SMOKE, 4)
    same = wl.make_inputs("batch", 1, wl.SMOKE, 4)
    other = wl.make_inputs("batch", 2, wl.SMOKE, 4)
    assert np.array_equal(one.base, same.base)
    assert np.array_equal(one.queries, same.queries)
    assert not np.array_equal(one.base, other.base)
    assert not np.array_equal(one.queries, other.queries)
    # The program gets arrays plus a config that knows neither the
    # benchmark seed nor the workload's name.
    for name in wl.CONFIGS:
        config = wl.make_config(name)
        assert config.seed == wl.COMMON["seed"]
        assert name not in repr(config)


@pytest.mark.parametrize("name", ["batch_fp32", "mixed_rw"])
def test_same_seed_same_work_counts_and_answers(name):
    first = measure.per_layer(name, 5, SMOKE_SECONDS, wl.SMOKE)
    again = measure.per_layer(name, 5, SMOKE_SECONDS, wl.SMOKE)
    assert first["failed"] == again["failed"] == 0
    assert first["detail"]["result_digest"] == again["detail"]["result_digest"]
    exact = [m for m in schema.EXACT if m in first["metrics"]]   # per-layer ones
    if name in schema.SINGLE_THREADED:  # kernel-side layers run in this process
        exact += schema.EXACT_COUNTS
        assert first["metrics"]["pruning.rows_scored"] > 0
        assert first["metrics"]["layout.builds"] == 1
        assert first["metrics"]["trace.unattributed_ratio"] <= 0.02
    else:
        assert first["metrics"]["layout.compactions"] >= 3
    for metric in exact:
        assert first["metrics"][metric] == again["metrics"][metric], metric
    assert set(first["metrics"]) == {n for n, *_ in schema.PER_LAYER}


def test_trace_file_is_a_valid_chrome_trace():
    from repro.obs.export import validate_chrome_trace

    out = measure.per_layer("batch_sq8", 3, SMOKE_SECONDS, wl.SMOKE)
    trace = json.loads((HERE / out["detail"]["trace_file"]).read_text())
    counts = validate_chrome_trace(trace)
    assert counts["B"] == counts["E"] == out["detail"]["spans_written"]
    names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "B"}
    assert {"db.search", "pruning.rerank", "heap.push"} <= names
    assert out["metrics"]["pruning.rerank_rows"] > 0


def test_pool_fallback_is_counted_as_failed(monkeypatch):
    """A pool that lost every worker answers from the thread path, with
    the right bytes: only the backend's own flag tells, and the run must
    not pass. (``DropSharedMemory`` would show the same without killing
    anything, but through ``HarmonyDB`` it raises ``IndexError`` in
    ``layout.gather`` at this commit, so the run dies instead.)"""
    plain_set_up = wl.set_up

    def set_up_then_lose_the_pool(name, inputs):
        db, elapsed = plain_set_up(name, inputs)
        for worker in list(db._host_backend._procs):
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=5.0)
        return db, elapsed

    monkeypatch.setattr(wl, "set_up", set_up_then_lose_the_pool)
    out = measure.end_to_end("batch_process", 3, SMOKE_SECONDS, wl.SMOKE)
    assert out["detail"]["fell_back"] and out["detail"]["mismatched"] == 0
    assert out["failed"] > 0


def test_serve_latency_follows_scan_cost():
    """The operating rung is where service time, not the flush timer,
    sets the latency: slower scans must show in it. (At smoke sizes over
    half the requests are cache hits, so the median is a hit: p95.)"""
    from repro.cluster.host_faults import DelayScan, HostFaultInjector

    inputs = wl.make_inputs("serve", 8, wl.SMOKE, 1)
    p95 = {}
    for label, delays in (("plain", []), ("slow", [DelayScan(seconds=0.03)])):
        db, _ = wl.set_up("serve_zipf", inputs)
        db.set_host_faults(HostFaultInjector(delays=delays))
        run = wl.ServePass(db, inputs, wl.SMOKE, wl.Pace())
        run.start()
        run.block(0)
        p95[label] = run.finish().figures["p95_ms"]
        db.close()
    assert p95["slow"] > 1.5 * p95["plain"], p95


def test_repeat_exits_nonzero_outside_the_bounds(monkeypatch, tmp_path):
    sys.path.insert(0, str(HERE))
    import run

    def sets(p50_second):
        row = dict.fromkeys(
            [n for n, *_ in schema.END_TO_END + schema.PER_LAYER], 1.0)
        return [
            {w: dict(row) for w, _ in schema.WORKLOADS},
            {w: dict(row, p50_ms=p50_second) for w, _ in schema.WORKLOADS},
        ]

    monkeypatch.setattr(run, "HERE", tmp_path / "benchmarks" / "ledger")
    for p50_second, code in ((1.05, 0), (1.5, 1)):
        monkeypatch.setattr(run, "run_sets", lambda *a, v=p50_second: sets(v))
        assert run.main(["--all", "--repeat", "2"]) == code
    report = json.loads(
        (tmp_path / "benchmarks/ledger/results/repeatability.json").read_text())
    outside = [r for r in report["rows"] if not r["within"]]
    assert {r["metric"] for r in outside} == {"p50_ms"}
    assert len(outside) == len(schema.WORKLOADS)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace, expected", [
    (0, schema.END_TO_END), (1, schema.PER_LAYER),
])
def test_result_line_contract(trace, expected):
    done = _run(ROOT, "--workload", "serve_zipf", "--seed", "4",
                "--seconds", "2", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert list(line["metrics"]) == [n for n, *_ in expected]
    for name, cell in line["metrics"].items():
        assert set(cell) == {"value", "unit"}
        assert cell["unit"] == schema.UNITS[name]
        assert np.isfinite(cell["value"])
    if trace == 0:
        assert all(cell["value"] != 0 for cell in line["metrics"].values())


def test_a_run_leaves_no_process_behind():
    """As a subreaper this process inherits whatever a run orphans (the
    multiprocessing resource tracker, a pool worker), so after a run on
    the process pool it must have no child, live or defunct."""
    import ctypes

    import run

    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        pytest.skip("no child subreaper on this kernel")
    try:
        before = set(run._children())
        done = _run(ROOT, "--workload", "batch_process", "--seed", "4",
                    "--seconds", "2", "--trace", "0", "--smoke")
        assert done.returncode == 0, done.stderr[-2000:]
        assert set(run._children()) <= before
    finally:
        libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _run(tmp_path, "--workload", "batch_fp32", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
