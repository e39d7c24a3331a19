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
import threading

import numpy as np
import pytest

from repro.core import database, pruning
from repro.core.executor import (
    Backend,
    HostBackend,
    SerialBackend,
)
from repro.core.executor import kernel
from repro.core.executor.kernel import _list_major
from repro.core.layout import ShardPackedBase
from repro.core.partition import build_plan
from repro.core.pipeline import PipelineEngine
from repro.core.results import ExecutionReport, SearchResult
from repro.core.routing import shard_candidate_lists, touched_shards
from repro.index.ivf import IVFFlatIndex
from tests.conftest import make_db
from tests.test_ledger_targets import _load

#: ``"thread"`` is the retired thread pool's spelling, which builds the
#: serial backend; its rows pin that the perf ledger's ``serve_zipf``
#: configuration still runs end to end.
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
    """Each (query, shard) pair is read once, in either scan precision.
    A shard-group below the sharing rule gathers each member once; one
    above it makes no gather and reads the group's probed lists once,
    scoring each non-empty one once. Three queries never share a list
    five ways; twenty do on some shards, and each source then runs where
    the rule sends it."""
    for precision in ("fp32", "sq8"):
        with make_db(
            tiny_data, tiny_queries, backend=backend, forced_grid=(4, 1),
            degraded_mode=True, scan_precision=precision,
        ) as db:
            db.search(tiny_queries, k=5)  # layout built, pool started
            for nq in (3, 20):
                _reads_once(db, tiny_queries[:nq], monkeypatch)


def test_each_sq8_stage_and_rerank_is_one_ledger_span(
    monkeypatch, tiny_data, tiny_queries
):
    """The perf ledger's span recorder, around a fused and a
    single-query SQ8 search, records one ``pruning.score`` span per stage
    ``drive_steps`` ran and one ``pruning.rerank`` span per ``survivors``
    call. The SQ8 scan classes hold those two methods themselves; one
    that called up to its parent's (recorded) method would be timed
    twice."""
    recorder = _load("spans").Recorder()
    stages, calls = [], {}
    drive_steps = kernel.drive_steps

    def counted(*args, **kwargs):
        for step in drive_steps(*args, **kwargs):
            stages.append(step)
            yield step

    monkeypatch.setattr(kernel, "drive_steps", counted)
    for scan in (pruning.SQ8ShardScan, pruning.SQ8ShardGroupScan):
        _counting(monkeypatch, scan, "survivors", calls)
    with make_db(
        tiny_data, tiny_queries, backend="serial", scan_precision="sq8"
    ) as db:
        db.search(tiny_queries, k=5)  # layout built
        for queries in (tiny_queries, tiny_queries[:1]):
            stages.clear()
            calls.clear()
            with recorder:
                db.search(queries, k=5)
            names = [span[1] for span in recorder.spans]
            recorder.spans.clear()
            assert names.count("pruning.score") == len(stages) > 0
            assert names.count("pruning.rerank") == calls["survivors"] > 0


def _reads_once(db, queries, monkeypatch):
    calls, gathered, read = {}, {}, {}

    def spy(owner, name, record):
        original = getattr(owner, name)

        def spied(*args, **kwargs):
            record(*args)
            return original(*args, **kwargs)

        patch.setattr(owner, name, spied)

    def gather(layout, shard, *_):
        gathered[shard] = gathered.get(shard, 0) + 1

    def list_rows(layout, shard, *_):
        assert shard not in read  # one read per group
        read[shard] = []

    def list_scores(scorer, slab, buffers, block, cols):  # first id names it
        read[next(reversed(read))].append(int(block.ids[0]))

    with monkeypatch.context() as patch:
        _counting(patch, IVFFlatIndex, "probe", calls)
        spy(ShardPackedBase, "gather", gather)
        spy(ShardPackedBase, "gather_sq8", gather)
        spy(ShardPackedBase, "_list_rows", list_rows)
        spy(pruning._Scorer, "listed", list_scores)
        _, report = db.search(queries, k=5)
    assert calls.pop("probe") == 1
    groups = {}
    for row in db.index.probe(queries, db.config.nprobe):
        for shard in touched_shards(db.plan, row):
            groups.setdefault(int(shard), []).append(
                shard_candidate_lists(db.plan, row, shard)
            )
    assert sum(map(len, groups.values())) > len(queries)  # shared groups
    major = {s for s, lists in groups.items() if _list_major(lists)}
    assert bool(major) == (len(queries) == 20)
    assert set(read) == major
    assert set(gathered) == set(groups) - major
    for shard, count in gathered.items():
        assert count == len(groups[shard])
    for shard in major:
        probed = np.unique(np.concatenate(groups[shard]))
        heads = [db.index.list_members(int(l)) for l in probed]
        assert sorted(read[shard]) == sorted(
            int(head[0]) for head in heads if head.size
        )
    assert report.degraded.mean_coverage == 1.0
    assert report.degraded.n_degraded_queries == 0
    assert report.fault_stats is None


def test_concurrent_shard_groups_lose_no_coverage_update(
    trained_index, tiny_queries
):
    """Shard-groups of concurrent searches share one kernel and its
    lifetime skip counter; with more caller threads than cores and a
    tiny switch interval, every batch must count exactly what a lone
    serial search counts, and the shared counter must lose no add."""
    plan = build_plan(
        trained_index, n_machines=4, n_vector_shards=4, n_dim_blocks=1
    )
    nq = len(tiny_queries)
    expected = np.zeros((nq, 2), dtype=np.int64)
    lone = SerialBackend(trained_index, plan=plan)
    lone.search(
        tiny_queries, k=5, nprobe=8, skip_shards={2}, coverage=expected
    )
    assert (expected[:, 0] < expected[:, 1]).any()
    skipped = lone.kernel.skipped_scans_total
    assert skipped > 0
    shared = SerialBackend(trained_index, plan=plan)
    wrong = []

    def caller() -> None:
        for _ in range(4):
            counts = np.zeros((nq, 2), dtype=np.int64)
            shared.search(
                tiny_queries, k=5, nprobe=8,
                skip_shards={2}, coverage=counts,
            )
            if not np.array_equal(counts, expected):
                wrong.append(counts)

    callers = [threading.Thread(target=caller) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert wrong == []
    assert shared.kernel.skipped_scans_total == 8 * 4 * skipped


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
