"""Executor lifecycle: one executor per deployment, built when the plan
changes and never when the data changes.

Drives one ``build → search → add → remove → search → compact → search
→ close → search → replan → search`` history on every backend ×
precision through the ``HarmonyDB`` facade and checks (a) what gets
constructed when, (b) that the kernel which served the first search
absorbs the mutations instead of being replaced, and (c) that the kept
executor answers — and, on the simulator, times — exactly like a fresh
deployment over the same mutated index. The second half pins what is
*deployment* state: the live replica directory outlives mutations and
is honoured by every backend.
"""

import numpy as np
import pytest

from repro.core.config import HarmonyConfig
from repro.core.database import HarmonyDB
from repro.core.executor.kernel import ScanKernel
from repro.core.pipeline import PipelineEngine

BACKENDS = ["sim", "serial", "thread", "process"]
GRID = (2, 2)


def make_config(backend, **overrides):
    pool = {"thread": {"n_threads": 2}, "process": {"n_workers": 2}}
    return HarmonyConfig(
        n_machines=4, nlist=16, nprobe=4, seed=0, backend=backend,
        **pool.get(backend, {}), **overrides,
    )


@pytest.fixture()
def constructed(monkeypatch):
    """Counts of ``ScanKernel`` / ``PipelineEngine`` constructions in
    this process (pool workers are forked and count for themselves)."""
    counts = {ScanKernel: 0, PipelineEngine: 0}

    def counting(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            counts[cls] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    counting(ScanKernel)
    counting(PipelineEngine)
    return counts


def assert_same_answers(got, expected):
    np.testing.assert_array_equal(got.ids, expected.ids)
    np.testing.assert_array_equal(got.distances, expected.distances)


@pytest.mark.parametrize("precision", ["fp32", "sq8"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_one_history_one_executor_per_plan(
    backend, precision, constructed, tiny_data, tiny_queries
):
    config = make_config(
        backend, scan_precision=precision, forced_grid=GRID
    )
    sim = backend == "sim"

    def opened(n):
        """``n`` executors opened so far: one kernel each, and an
        engine only where the simulator is the executor."""
        assert constructed[ScanKernel] == n
        assert constructed[PipelineEngine] == (n if sim else 0)

    with HarmonyDB(dim=32, config=config) as db:
        db.build(tiny_data, sample_queries=tiny_queries)
        opened(0)  # a plan exists; nothing is built until it is searched
        assert db.is_built

        db.search(tiny_queries, k=5)
        opened(1)
        executor = db._executor()
        kernel = executor.kernel

        # Re-insert rows 0..11 under new ids: every list keeps its live
        # size, so planning afresh over the mutated index in (c) picks
        # the very same plan.
        assert db.add(tiny_data[:12]) == 12
        assert db.remove(np.arange(12)) == 12
        opened(1)
        mutated, mutated_report = db.search(tiny_queries, k=5)
        opened(1)
        # (b) the kernel that served the first search served this one,
        # and took the mutations in as delta rows / tombstone bits.
        assert db._executor() is executor and executor.kernel is kernel
        assert kernel.layout_refreshes >= 1

        assert db.compact()["compacted"] is True
        compacted, compacted_report = db.search(tiny_queries, k=5)
        opened(1)
        assert db._executor().kernel is kernel

        # (c) a fresh deployment of the same plan over the mutated index.
        constructed_before = dict(constructed)
        with HarmonyDB.from_trained_index(
            db.index, config=config, sample_queries=tiny_queries
        ) as fresh:
            np.testing.assert_array_equal(
                fresh.plan.shard_of_list, db.plan.shard_of_list
            )
            expected, expected_report = fresh.search(tiny_queries, k=5)
            fresh_memory = fresh.index_memory_report()
        constructed.update(constructed_before)
        assert db.index_memory_report() == fresh_memory
        assert_same_answers(mutated, expected)
        assert_same_answers(compacted, expected)
        if sim and precision == "fp32":
            # The kept engine re-ran only its memory accounting; the
            # simulated figures are those of a fresh placement. (On sq8
            # the kept generation's frozen code parameters may prune
            # differently from a fresh pack: answers only.)
            for report in (mutated_report, compacted_report):
                assert (
                    report.simulated_seconds
                    == expected_report.simulated_seconds
                )
                assert report.breakdown == expected_report.breakdown
                np.testing.assert_array_equal(
                    report.pruning.ratios(), expected_report.pruning.ratios()
                )

        db.close()
        reopened, _ = db.search(tiny_queries, k=5)
        opened(2)
        assert_same_answers(reopened, expected)

        db.replan(tiny_queries)
        opened(2)
        replanned, _ = db.search(tiny_queries, k=5)
        opened(3)
        np.testing.assert_array_equal(replanned.ids, expected.ids)


class TestDeploymentStateOutlivesTheExecutor:
    """The live replica directory is the deployment's: it survives
    mutations and every backend routes by it."""

    @staticmethod
    def deploy(backend, data, queries, **overrides):
        db = HarmonyDB(
            dim=32,
            config=make_config(
                backend, replicas=2, forced_grid=(2, 1), **overrides
            ),
        )
        db.build(data, sample_queries=queries)
        return db

    @staticmethod
    def static_holders(db):
        return [int(m) for m in db.plan.replica_machines(0, 0)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_repaired_failures_survive_a_mutation(
        self, backend, tiny_data, tiny_queries
    ):
        with self.deploy(backend, tiny_data, tiny_queries) as db:
            healthy, _ = db.search(tiny_queries, k=5)
            manager = db.enable_fault_recovery()
            for node in self.static_holders(db):
                manager.fail(node)  # re-replicates before the next one
            assert not manager.directory.lost_blocks()
            repaired, _ = db.search(tiny_queries, k=5)
            assert_same_answers(repaired, healthy)

            db.add(tiny_data[:1] + 100.0)  # far from every query
            after_add, _ = db.search(tiny_queries, k=5)
            assert_same_answers(after_add, healthy)

    def test_every_backend_routes_by_the_live_directory(
        self, tiny_data, tiny_queries
    ):
        answers = {}
        for backend in ("sim", "serial", "thread"):
            with self.deploy(backend, tiny_data, tiny_queries) as db:
                manager = db.enable_fault_recovery()
                for node in self.static_holders(db):
                    manager.fail(node)
                answers[backend], _ = db.search(tiny_queries, k=5)
        assert_same_answers(answers["serial"], answers["sim"])
        assert_same_answers(answers["thread"], answers["sim"])

    def test_a_truly_lost_block_degrades_the_same_everywhere(
        self, tiny_data, tiny_queries
    ):
        outcomes = {}
        for backend in ("sim", "serial", "thread"):
            with self.deploy(
                backend, tiny_data, tiny_queries, degraded_mode=True
            ) as db:
                manager = db.enable_fault_recovery()
                for node in self.static_holders(db):
                    manager.mark_failed(node)  # no repair in between
                assert (0, 0) in manager.directory.lost_blocks()
                outcomes[backend] = db.search(tiny_queries, k=5)
        sim_result, sim_report = outcomes["sim"]
        assert sim_report.degraded.min_coverage < 1.0
        for backend in ("serial", "thread"):
            result, report = outcomes[backend]
            assert_same_answers(result, sim_result)
            np.testing.assert_array_equal(
                report.degraded.coverage, sim_report.degraded.coverage
            )
            assert (
                report.degraded.n_degraded_queries
                == sim_report.degraded.n_degraded_queries
            )

    def test_repair_target_is_independent_of_the_executor(
        self, tiny_data, tiny_queries
    ):
        """Re-replication balances on the directory's placement, so
        the machines it picks do not depend on the backend or on
        whether a search has opened the executor yet."""

        def repaired_holders(backend, search_first):
            with self.deploy(backend, tiny_data, tiny_queries) as db:
                if search_first:
                    db.search(tiny_queries, k=5)
                manager = db.enable_fault_recovery()
                manager.fail(0)
                return {
                    shard: manager.directory.holders(shard, 0)
                    for shard in range(db.plan.n_vector_shards)
                }

        expected = repaired_holders("sim", search_first=False)
        for backend in ("sim", "serial"):
            for search_first in (False, True):
                assert repaired_holders(backend, search_first) == expected
