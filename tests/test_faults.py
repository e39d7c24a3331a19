"""Fault injection, degraded mode, and simulated recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import CLIENT_NODE, Cluster
from repro.cluster.faults import (
    MAX_RETRANSMITS,
    FaultEvent,
    FaultSchedule,
    WorkerUnavailableError,
)
from repro.cluster.recovery import ReplicaDirectory, unavailable_shards
from repro.core.config import HarmonyConfig
from tests.conftest import make_db


# ----------------------------------------------------------------------
# FaultEvent / FaultSchedule
# ----------------------------------------------------------------------


class TestFaultEvent:
    def test_valid_kinds_only(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(time=0.0, kind="meteor", node=0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            FaultEvent(time=-1.0, kind="crash", node=0)

    def test_node_kinds_need_node(self):
        with pytest.raises(ValueError, match="worker id"):
            FaultEvent(time=0.0, kind="crash")

    def test_link_event_needs_no_node(self):
        event = FaultEvent(time=0.0, kind="link", bandwidth_factor=0.5)
        assert event.node == -1

    def test_drop_probability_bounds(self):
        with pytest.raises(ValueError, match="drop_probability"):
            FaultEvent(time=0.0, kind="link", drop_probability=0.95)

    def test_bandwidth_factor_bounds(self):
        with pytest.raises(ValueError, match="bandwidth_factor"):
            FaultEvent(time=0.0, kind="link", bandwidth_factor=1.5)


class TestFaultSchedule:
    def test_crash_recover_windows(self):
        sched = FaultSchedule(
            [
                FaultEvent(time=1.0, kind="crash", node=2),
                FaultEvent(time=3.0, kind="recover", node=2),
            ]
        )
        assert not sched.is_down(2, 0.5)
        assert sched.is_down(2, 1.0)
        assert sched.is_down(2, 2.9)
        assert not sched.is_down(2, 3.0)
        assert not sched.is_down(0, 2.0)

    def test_straggler_window(self):
        sched = FaultSchedule(
            [
                FaultEvent(
                    time=1.0, kind="straggler", node=0, rate_multiplier=0.25
                ),
                FaultEvent(
                    time=2.0, kind="straggler", node=0, rate_multiplier=1.0
                ),
            ]
        )
        assert sched.rate_multiplier(0, 0.5) == 1.0
        assert sched.rate_multiplier(0, 1.5) == 0.25
        assert sched.rate_multiplier(0, 2.5) == 1.0

    def test_link_state_window(self):
        sched = FaultSchedule(
            [
                FaultEvent(
                    time=1.0,
                    kind="link",
                    bandwidth_factor=0.5,
                    drop_probability=0.1,
                ),
                FaultEvent(time=2.0, kind="link"),
            ]
        )
        assert sched.link_state(0.0) == (1.0, 0.0)
        assert sched.link_state(1.5) == (0.5, 0.1)
        assert sched.link_state(2.5) == (1.0, 0.0)

    def test_drop_roll_deterministic(self):
        a = FaultSchedule([], seed=9)
        b = FaultSchedule([], seed=9)
        rolls_a = [a.drop_roll(i) for i in range(16)]
        rolls_b = [b.drop_roll(i) for i in range(16)]
        assert rolls_a == rolls_b
        assert all(0.0 <= r < 1.0 for r in rolls_a)

    def test_random_schedule_deterministic(self):
        a = FaultSchedule.random(4, duration=1.0, seed=3)
        b = FaultSchedule.random(4, duration=1.0, seed=3)
        assert a.events == b.events
        c = FaultSchedule.random(4, duration=1.0, seed=4)
        assert a.events != c.events

    def test_horizon_and_introspection(self):
        sched = FaultSchedule(
            [
                FaultEvent(time=2.0, kind="crash", node=1),
                FaultEvent(time=0.5, kind="straggler", node=0,
                           rate_multiplier=0.5),
            ]
        )
        assert sched.horizon == 2.0
        assert sched.nodes_touched() == frozenset({0, 1})
        assert len(sched.events_between(0.0, 1.0)) == 1


# ----------------------------------------------------------------------
# Cluster integration
# ----------------------------------------------------------------------


class TestClusterFaults:
    def test_compute_raises_while_crashed(self):
        cluster = Cluster(n_workers=2)
        cluster.set_fault_schedule(
            FaultSchedule(
                [
                    FaultEvent(time=1.0, kind="crash", node=0),
                    FaultEvent(time=2.0, kind="recover", node=0),
                ]
            )
        )
        cluster.compute(0, 1000, earliest=0.5)  # before the crash: fine
        with pytest.raises(WorkerUnavailableError, match="crashed"):
            cluster.compute(0, 1000, earliest=1.5)
        cluster.compute(0, 1000, earliest=2.5)  # recovered

    def test_worker_unavailable_is_runtime_error(self):
        assert issubclass(WorkerUnavailableError, RuntimeError)

    def test_straggler_slows_compute(self):
        fast = Cluster(n_workers=1)
        slow = Cluster(n_workers=1)
        slow.set_fault_schedule(
            FaultSchedule(
                [
                    FaultEvent(
                        time=0.0, kind="straggler", node=0,
                        rate_multiplier=0.25,
                    )
                ]
            )
        )
        _, end_fast = fast.compute(0, 10_000)
        _, end_slow = slow.compute(0, 10_000)
        assert end_slow == pytest.approx(end_fast * 4.0)

    def test_degraded_link_slows_transfer(self):
        base = Cluster(n_workers=2)
        cut = Cluster(n_workers=2)
        cut.set_fault_schedule(
            FaultSchedule(
                [FaultEvent(time=0.0, kind="link", bandwidth_factor=0.5)]
            )
        )
        t_base = base.transfer(0, 1, 1_000_000)
        t_cut = cut.transfer(0, 1, 1_000_000)
        assert t_cut > t_base

    def test_message_drops_deterministic_and_counted(self):
        def run() -> tuple[float, int]:
            cluster = Cluster(n_workers=2)
            cluster.set_fault_schedule(
                FaultSchedule(
                    [
                        FaultEvent(
                            time=0.0, kind="link", drop_probability=0.5
                        )
                    ],
                    seed=1,
                )
            )
            arrivals = [
                cluster.transfer(0, 1, 10_000, earliest=float(i))
                for i in range(20)
            ]
            return sum(arrivals), cluster.fault_counters["dropped_messages"]

        total_a, drops_a = run()
        total_b, drops_b = run()
        assert total_a == total_b
        assert drops_a == drops_b
        assert drops_a > 0

    def test_retransmit_cap(self):
        cluster = Cluster(n_workers=2)
        cluster.set_fault_schedule(
            FaultSchedule(
                [FaultEvent(time=0.0, kind="link", drop_probability=0.9)],
                seed=0,
            )
        )
        cluster.transfer(0, 1, 1000)  # must terminate
        assert (
            cluster.fault_counters["dropped_messages"] <= MAX_RETRANSMITS
        )

    def test_no_schedule_transfer_unchanged(self):
        plain = Cluster(n_workers=2)
        scheduled = Cluster(n_workers=2)
        scheduled.set_fault_schedule(FaultSchedule([]))
        assert plain.transfer(0, 1, 12_345) == scheduled.transfer(
            0, 1, 12_345
        )

    def test_reset_time_clears_fault_counters(self):
        cluster = Cluster(n_workers=2)
        cluster.set_fault_schedule(
            FaultSchedule(
                [FaultEvent(time=0.0, kind="link", drop_probability=0.5)],
                seed=1,
            )
        )
        for i in range(10):
            cluster.transfer(0, 1, 10_000, earliest=float(i))
        assert cluster.fault_counters["dropped_messages"] > 0
        cluster.reset_time()
        assert cluster.fault_counters["dropped_messages"] == 0

    def test_set_fault_schedule_type_checked(self):
        cluster = Cluster(n_workers=2)
        with pytest.raises(TypeError, match="FaultSchedule"):
            cluster.set_fault_schedule("crash everything")  # type: ignore


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
        assert config.hedge_latency_threshold is None

    def test_validation(self):
        with pytest.raises(ValueError, match="retry_timeout"):
            HarmonyConfig(retry_timeout=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            HarmonyConfig(max_retries=-1)
        with pytest.raises(ValueError, match="hedge_latency_threshold"):
            HarmonyConfig(hedge_latency_threshold=-1e-3)

    def test_save_load_roundtrip(self, tmp_path, tiny_data, tiny_queries):
        from repro.core.database import HarmonyDB

        db = make_db(
            tiny_data,
            tiny_queries,
            degraded_mode=True,
            retry_timeout=1e-3,
            max_retries=5,
            hedge_latency_threshold=2e-3,
        )
        path = tmp_path / "db.npz"
        db.save(path)
        loaded = HarmonyDB.load(path)
        assert loaded.config.degraded_mode is True
        assert loaded.config.retry_timeout == 1e-3
        assert loaded.config.max_retries == 5
        assert loaded.config.hedge_latency_threshold == 2e-3


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

    def test_crash_recover_schedule_never_raises_and_deterministic(
        self, tiny_data, tiny_queries
    ):
        def run():
            db = make_db(
                tiny_data, tiny_queries, backend="sim",
                degraded_mode=True, replicas=2,
            )
            db.set_fault_schedule(
                FaultSchedule(
                    [
                        FaultEvent(time=0.0, kind="crash", node=1),
                        FaultEvent(time=5e-4, kind="recover", node=1),
                    ],
                    seed=2,
                )
            )
            return db.search(tiny_queries, k=5)

        r1, rep1 = run()
        r2, rep2 = run()
        assert np.array_equal(r1.ids, r2.ids)
        assert np.array_equal(r1.distances, r2.distances)
        assert rep1.simulated_seconds == rep2.simulated_seconds
        assert np.array_equal(rep1.latencies, rep2.latencies)

    def test_retries_charge_simulated_time(self, tiny_data, tiny_queries):
        db = make_db(
            tiny_data, tiny_queries, backend="sim",
            degraded_mode=True, replicas=2,
        )
        sched = FaultSchedule(
            [
                FaultEvent(time=0.0, kind="crash", node=0),
                FaultEvent(time=1e-3, kind="recover", node=0),
            ]
        )
        db.set_fault_schedule(sched)
        _, faulty = db.search(tiny_queries, k=5)
        db.set_fault_schedule(None)
        _, healthy = db.search(tiny_queries, k=5)
        assert faulty.fault_stats is not None
        assert (
            faulty.fault_stats.retries > 0
            or faulty.fault_stats.failovers > 0
        )
        assert faulty.simulated_seconds > healthy.simulated_seconds

    def test_hedging_counts_surface(self, tiny_data, tiny_queries):
        db = make_db(
            tiny_data,
            tiny_queries,
            backend="sim",
            replicas=2,
            hedge_latency_threshold=1e-7,  # hedge practically always
        )
        db.set_fault_schedule(
            FaultSchedule(
                [
                    FaultEvent(
                        time=0.0, kind="straggler", node=0,
                        rate_multiplier=0.05,
                    )
                ]
            )
        )
        _, report = db.search(tiny_queries, k=5)
        assert report.fault_stats is not None
        assert report.fault_stats.hedges > 0
        assert report.fault_stats.hedge_wins >= 0

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

    def test_fault_schedule_rejected_on_host(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, tiny_queries, backend="serial")
        db.set_fault_schedule(FaultSchedule([]))
        with pytest.raises(ValueError, match="sim"):
            db.search(tiny_queries, k=5)

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


def test_sim_crash_is_retried_failed_over_or_skipped(tiny_data, tiny_queries):
    """A worker crashed at t=0 sends the sim pipeline down its backoff
    path: every scan it owned is retried, failed over, or skipped."""
    db = make_db(
        tiny_data, tiny_queries, backend="sim",
        degraded_mode=True, replicas=2,
    )
    db.set_fault_schedule(
        FaultSchedule([FaultEvent(time=0.0, kind="crash", node=0)])
    )
    _, report = db.search(tiny_queries, k=5)
    stats = report.fault_stats
    assert stats is not None and (
        stats.retries > 0 or stats.failovers > 0 or stats.skipped_scans > 0
    )
