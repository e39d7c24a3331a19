"""``Backend.run``: every backend answers a search with its report.

The contract (same bytes as ``HarmonyDB.search`` and, on the host, as
the report-free ``search``), the rule the report is built by — a number
is taken in the pass that does the work, never recomputed afterwards —
and the guard that keeps ``HarmonyDB`` from asking which executor it
holds again.
"""

import ast
import inspect
import sys

import numpy as np
import pytest

from repro.core import database
from repro.core.executor import (
    Backend,
    HostBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.core.layout import ShardPackedBase
from repro.core.partition import build_plan
from repro.core.pipeline import PipelineEngine
from repro.core.results import ExecutionReport, SearchResult
from repro.core.routing import touched_shards
from repro.index.ivf import IVFFlatIndex
from tests.conftest import make_db

BACKENDS = ["sim", "serial", "thread", "process"]


# ---------------------------------------------------------------------------
# (a) the contract
# ---------------------------------------------------------------------------


def test_run_is_the_one_abstract_method():
    assert Backend.__abstractmethods__ == frozenset({"run"})
    for gone in ("search", "last_report"):
        assert not hasattr(PipelineEngine, gone)
    for gone in ("last_rerank_count", "layout_nbytes", "code_nbytes"):
        assert not hasattr(HostBackend, gone)


@pytest.mark.parametrize("precision", ["fp32", "sq8"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_run_returns_the_answers_and_their_report(
    backend, precision, tiny_data, tiny_queries
):
    with make_db(
        tiny_data, tiny_queries,
        backend=backend, scan_precision=precision, n_workers=2,
    ) as db:
        executor = db._executor()
        result, report = executor.run(tiny_queries, 5, 4)
        assert isinstance(result, SearchResult)
        assert isinstance(report, ExecutionReport)
        assert (report.n_queries, report.k, report.nprobe) == (20, 5, 4)
        same = [db.search(tiny_queries, k=5, nprobe=4)[0]]
        if isinstance(executor, HostBackend):
            same.append(executor.search(tiny_queries, k=5, nprobe=4))
        for other in same:
            assert result.ids.tobytes() == other.ids.tobytes()
            assert result.distances.tobytes() == other.distances.tobytes()


def test_a_bare_backend_runs_without_cluster_or_config(
    trained_index, tiny_queries
):
    backend = SerialBackend(trained_index)
    result, report = backend.run(tiny_queries, 5, nprobe=4)
    reference = backend.search(tiny_queries, k=5, nprobe=4)
    np.testing.assert_array_equal(result.ids, reference.ids)
    np.testing.assert_array_equal(result.distances, reference.distances)
    assert report.plan_summary.endswith("[serial backend, host wall-clock]")
    assert report.simulated_seconds > 0
    assert report.breakdown.computation == report.simulated_seconds
    assert report.degraded is None and report.worker_steals is None
    assert report.layout_bytes > 0
    with pytest.raises(ValueError, match="arrival_times"):
        backend.run(tiny_queries, 5, 4, arrival_times=np.zeros(20))


# ---------------------------------------------------------------------------
# (b) nothing is done twice to fill the report
# ---------------------------------------------------------------------------


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_healthy_degraded_mode_probes_and_gathers_once(
    backend, monkeypatch, tiny_data, tiny_queries
):
    with make_db(
        tiny_data, tiny_queries,
        backend=backend, forced_grid=(4, 1), degraded_mode=True,
    ) as db:
        db.search(tiny_queries, k=5)  # layout built, pool started
        calls = {}
        with monkeypatch.context() as patch:
            _counting(patch, IVFFlatIndex, "probe", calls)
            _counting(patch, ShardPackedBase, "gather", calls)
            _counting(patch, ShardPackedBase, "gather_sq8", calls)
            _, report = db.search(tiny_queries, k=5)
        probes = db.index.probe(tiny_queries, db.config.nprobe)
        touched = sum(len(touched_shards(db.plan, row)) for row in probes)
        assert touched > len(tiny_queries)  # rows shared between groups
        assert calls.pop("probe") == 1
        assert sum(calls.values()) == touched
        assert report.degraded.mean_coverage == 1.0
        assert report.degraded.n_degraded_queries == 0
        assert report.fault_stats is None


def test_concurrent_shard_groups_lose_no_coverage_update(
    trained_index, tiny_queries
):
    """Shard-groups sharing a query add to one coverage row; with more
    threads than cores and a tiny switch interval, 25 batches must all
    count exactly what the serial loop counts."""
    plan = build_plan(
        trained_index, n_machines=4, n_vector_shards=4, n_dim_blocks=1
    )
    nq = len(tiny_queries)
    expected = np.zeros((nq, 2), dtype=np.int64)
    SerialBackend(trained_index, plan=plan).search(
        tiny_queries, k=5, nprobe=8, skip_shards={2}, coverage=expected
    )
    assert (expected[:, 0] < expected[:, 1]).any()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadBackend(trained_index, plan=plan, n_threads=8) as backend:
            for _ in range(25):
                counts = np.zeros((nq, 2), dtype=np.int64)
                backend.search(
                    tiny_queries, k=5, nprobe=8,
                    skip_shards={2}, coverage=counts,
                )
                np.testing.assert_array_equal(counts, expected)
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# (c) a shard truly lost: every backend reports the same loss
# ---------------------------------------------------------------------------


def test_a_lost_shard_is_accounted_alike_on_every_backend(
    tiny_data, tiny_queries
):
    reports = {}
    for backend in BACKENDS:
        with make_db(
            tiny_data, tiny_queries, backend=backend, n_workers=2,
            forced_grid=(4, 1), replicas=1, degraded_mode=True,
        ) as db:
            db.cluster.fail_worker(int(db.plan.placement[0, 0]))
            _, report = db.search(tiny_queries, k=5)
            reports[backend] = report
    sim = reports["sim"].degraded
    for backend, report in reports.items():
        degraded = report.degraded
        np.testing.assert_array_equal(
            degraded.coverage, sim.coverage, err_msg=backend
        )
        # The values the post-hoc accounting this replaced produced.
        assert degraded.n_degraded_queries == 13, backend
        assert degraded.skipped_scans == 13, backend
        assert report.fault_stats.skipped_scans == 13, backend
        assert degraded.recall_vs_healthy == pytest.approx(
            0.8615384615384616, abs=1e-12
        ), backend
        assert float(degraded.coverage.sum()) == pytest.approx(
            16.17267175811731, abs=1e-9
        ), backend


# ---------------------------------------------------------------------------
# (d) the branch cannot creep back
# ---------------------------------------------------------------------------


def test_harmony_db_never_asks_which_executor_it_holds():
    tree = ast.parse(inspect.getsource(database))
    names = {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    } | {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    assert not names & {"_host_search", "_wall_clock_report"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                assert not (
                    isinstance(operand, ast.Attribute)
                    and operand.attr == "name"
                ), f"line {node.lineno} compares a backend's name"
