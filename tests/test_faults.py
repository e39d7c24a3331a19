"""Fault injection, degraded mode, and simulated recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import CLIENT_NODE, Cluster, WorkerUnavailableError
from repro.cluster.recovery import ReplicaDirectory, unavailable_shards
from repro.core.config import HarmonyConfig
from tests.conftest import make_db


# ----------------------------------------------------------------------
# Cluster integration
# ----------------------------------------------------------------------


class TestClusterFaults:
    def test_compute_raises_while_crashed(self):
        cluster = Cluster(n_workers=2)
        cluster.compute(0, 1000)  # before the failure: fine
        cluster.fail_worker(0)
        with pytest.raises(WorkerUnavailableError, match="failed"):
            cluster.compute(0, 1000)
        cluster.compute(1, 1000)  # the survivor still computes
        cluster.restore_worker(0)
        cluster.compute(0, 1000)  # restored

    def test_worker_unavailable_is_runtime_error(self):
        assert issubclass(WorkerUnavailableError, RuntimeError)


class TestRestoreWorkerValidation:
    def test_out_of_range_raises(self):
        cluster = Cluster(n_workers=2)
        with pytest.raises(IndexError):
            cluster.restore_worker(99)
        with pytest.raises(IndexError):
            cluster.restore_worker(-7)

    def test_client_node_rejected(self):
        cluster = Cluster(n_workers=2)
        with pytest.raises(ValueError, match="client node"):
            cluster.restore_worker(CLIENT_NODE)

    def test_valid_unfailed_still_noop(self):
        cluster = Cluster(n_workers=2)
        cluster.restore_worker(1)
        assert not cluster.is_failed(1)


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------


class TestFaultConfig:
    def test_defaults(self):
        config = HarmonyConfig()
        assert config.degraded_mode is False


# ----------------------------------------------------------------------
# Degraded-mode search (sim backend)
# ----------------------------------------------------------------------


class TestDegradedSearch:
    def test_unreplicated_failure_degrades_not_raises(
        self, tiny_data, tiny_queries
    ):
        db = make_db(tiny_data, tiny_queries, degraded_mode=True)
        db.cluster.fail_worker(0)
        result, report = db.search(tiny_queries, k=5)
        assert report.degraded is not None
        assert report.degraded.min_coverage < 1.0
        assert report.degraded.n_degraded_queries > 0
        assert report.fault_stats is not None
        assert report.fault_stats.skipped_scans > 0
        # Partial results: padded entries allowed, never bogus ids.
        assert result.ids.shape == (tiny_queries.shape[0], 5)

    def test_default_mode_still_raises(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, tiny_queries)
        db.cluster.fail_worker(0)
        with pytest.raises(RuntimeError, match="no live replica"):
            db.search(tiny_queries, k=5)

    def test_healthy_degraded_run_is_fully_covered(
        self, tiny_data, tiny_queries
    ):
        db = make_db(tiny_data, tiny_queries, degraded_mode=True)
        result, report = db.search(tiny_queries, k=5)
        assert report.degraded is not None
        assert report.degraded.min_coverage == 1.0
        assert report.degraded.recall_vs_healthy == 1.0
        healthy = make_db(tiny_data, tiny_queries).search(tiny_queries, k=5)
        assert np.array_equal(result.ids, healthy[0].ids)

    def test_recall_delta_measured(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, tiny_queries, degraded_mode=True)
        db.cluster.fail_worker(0)
        _, report = db.search(tiny_queries, k=5)
        degraded = report.degraded
        assert degraded is not None
        assert 0.0 <= degraded.recall_vs_healthy <= 1.0
        assert degraded.recall_delta == pytest.approx(
            1.0 - degraded.recall_vs_healthy
        )

    def test_fault_stats_in_to_dict(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, tiny_queries, degraded_mode=True)
        db.cluster.fail_worker(0)
        _, report = db.search(tiny_queries, k=5)
        payload = report.to_dict()
        assert "fault_stats" in payload
        assert "degraded" in payload
        assert payload["degraded"]["min_coverage"] < 1.0


# ----------------------------------------------------------------------
# Host-backend failure semantics (satellite: backend asymmetry)
# ----------------------------------------------------------------------


class TestHostBackendFailures:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_failed_worker_raises_without_degraded_mode(
        self, tiny_data, tiny_queries, backend
    ):
        db = make_db(tiny_data, tiny_queries, backend=backend)
        db.cluster.fail_worker(0)
        with pytest.raises(RuntimeError, match="no live replica"):
            db.search(tiny_queries, k=5)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("batch", [True, False])
    def test_degraded_host_matches_sim(
        self, tiny_data, tiny_queries, backend, batch
    ):
        sim = make_db(tiny_data, tiny_queries, degraded_mode=True)
        sim.cluster.fail_worker(0)
        sim_result, sim_report = sim.search(tiny_queries, k=5)

        host = make_db(
            tiny_data,
            tiny_queries,
            backend=backend,
            degraded_mode=True,
            batch_queries=batch,
        )
        host.cluster.fail_worker(0)
        host_result, host_report = host.search(tiny_queries, k=5)
        assert np.array_equal(host_result.ids, sim_result.ids)
        assert np.array_equal(host_result.distances, sim_result.distances)
        assert host_report.degraded is not None
        np.testing.assert_allclose(
            host_report.degraded.coverage, sim_report.degraded.coverage
        )

    def test_replicated_failover_on_host(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, tiny_queries, backend="serial", replicas=2)
        db.cluster.fail_worker(0)
        result, report = db.search(tiny_queries, k=5)
        healthy = make_db(tiny_data, tiny_queries).search(tiny_queries, k=5)
        assert np.array_equal(result.ids, healthy[0].ids)
        assert report.degraded is None


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------


class TestRecovery:
    def _db(self, tiny_data, tiny_queries, **overrides):
        return make_db(
            tiny_data, tiny_queries, degraded_mode=True, replicas=2,
            **overrides,
        )

    def test_directory_mirrors_plan(self, tiny_data, tiny_queries):
        db = self._db(tiny_data, tiny_queries)
        directory = ReplicaDirectory(db.plan, db.index)
        plan = db.plan
        for shard in range(plan.n_vector_shards):
            for block in range(plan.n_dim_blocks):
                expected = sorted(
                    {int(m) for m in plan.replica_machines(shard, block)}
                )
                assert list(directory.holders(shard, block)) == expected

    def test_fail_restores_redundancy(self, tiny_data, tiny_queries):
        db = self._db(tiny_data, tiny_queries)
        manager = db.enable_fault_recovery()
        report = manager.fail(0, now=0.0)
        assert report.blocks_copied > 0
        assert report.bytes_copied > 0
        assert report.time_to_full_redundancy > 0.0
        assert not manager.directory.under_replicated()
        # Search still exact: every block has a live copy again.
        result, search_report = db.search(tiny_queries, k=5)
        healthy = make_db(tiny_data, tiny_queries).search(tiny_queries, k=5)
        assert np.array_equal(result.ids, healthy[0].ids)
        assert search_report.degraded.min_coverage == 1.0

    def test_detection_delay_then_repair(self, tiny_data, tiny_queries):
        db = self._db(tiny_data, tiny_queries)
        manager = db.enable_fault_recovery()
        # Both replica holders die before the detector fires: some
        # blocks are lost and searches degrade.
        manager.mark_failed(0)
        manager.mark_failed(1)
        assert manager.directory.lost_blocks()
        _, degraded_report = db.search(tiny_queries, k=5)
        assert degraded_report.degraded.min_coverage < 1.0
        # Restore one machine: its copies return, repair rebuilds the
        # rest, coverage returns to 1.0.
        manager.restore(1, now=0.1)
        repair = manager.repair(now=0.1)
        assert not manager.directory.lost_blocks()
        assert not manager.directory.under_replicated()
        _, recovered_report = db.search(tiny_queries, k=5)
        assert recovered_report.degraded.min_coverage == 1.0
        assert repair.completed_at >= 0.1

    def test_restore_trims_extras(self, tiny_data, tiny_queries):
        db = self._db(tiny_data, tiny_queries)
        manager = db.enable_fault_recovery()
        manager.fail(0, now=0.0)
        report = manager.restore(0, now=0.5)
        assert report.blocks_trimmed > 0
        # Back to the plan's placement exactly.
        plan = db.plan
        for shard in range(plan.n_vector_shards):
            for block in range(plan.n_dim_blocks):
                expected = sorted(
                    {int(m) for m in plan.replica_machines(shard, block)}
                )
                assert (
                    list(manager.directory.holders(shard, block)) == expected
                )

    def test_memory_accounting_balances(self, tiny_data, tiny_queries):
        db = self._db(tiny_data, tiny_queries)
        manager = db.enable_fault_recovery()
        # Open the executor so the sim backend's placed blocks are on
        # the books: an over-release must not hide behind a zero floor.
        db.search(tiny_queries, k=5)
        before = [n.current_bytes for n in db.cluster.workers]
        manager.fail(0, now=0.0)
        manager.restore(0, now=0.5)
        after = [n.current_bytes for n in db.cluster.workers]
        assert after == before

    def test_unavailable_shards_helper(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, tiny_queries)
        assert unavailable_shards(db.cluster, db.plan) == set()
        db.cluster.fail_worker(0)
        dead = unavailable_shards(db.cluster, db.plan)
        assert dead  # unreplicated: machine 0's shards are gone
        db.cluster.restore_worker(0)
        assert unavailable_shards(db.cluster, db.plan) == set()

    def test_recovery_deterministic(self, tiny_data, tiny_queries):
        def run():
            # Returns simulated_seconds: a sim-clock determinism check.
            db = self._db(tiny_data, tiny_queries, backend="sim")
            manager = db.enable_fault_recovery()
            fail = manager.fail(0, now=0.0)
            _, report = db.search(tiny_queries, k=5)
            restore = manager.restore(0, now=0.5)
            return fail.to_dict(), report.simulated_seconds, restore.to_dict()

        assert run() == run()

