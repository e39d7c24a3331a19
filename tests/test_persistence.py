"""Tests for index / deployment persistence (save & load)."""

import numpy as np
import pytest

from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB
from repro.index.ivf import IVFFlatIndex


class TestIndexPersistence:
    def test_round_trip_results_identical(
        self, trained_index, tiny_queries, tmp_path
    ):
        path = tmp_path / "index.npz"
        trained_index.save(path)
        loaded = IVFFlatIndex.load(path)
        d1, i1 = trained_index.search(tiny_queries, k=5, nprobe=4)
        d2, i2 = loaded.search(tiny_queries, k=5, nprobe=4)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_allclose(d1, d2)

    def test_round_trip_preserves_structure(self, trained_index, tmp_path):
        path = tmp_path / "index.npz"
        trained_index.save(path)
        loaded = IVFFlatIndex.load(path)
        assert loaded.dim == trained_index.dim
        assert loaded.nlist == trained_index.nlist
        assert loaded.ntotal == trained_index.ntotal
        np.testing.assert_array_equal(
            loaded.centroids, trained_index.centroids
        )
        for list_id in range(trained_index.nlist):
            np.testing.assert_array_equal(
                loaded.list_members(list_id),
                trained_index.list_members(list_id),
            )

    def test_round_trip_preserves_deletes(
        self, tiny_data, tiny_queries, tmp_path
    ):
        index = IVFFlatIndex(dim=32, nlist=16, seed=0)
        index.train(tiny_data)
        index.add(tiny_data)
        index.remove_ids(np.arange(25))
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = IVFFlatIndex.load(path)
        assert loaded.nlive == index.nlive
        _, i1 = index.search(tiny_queries, k=5, nprobe=16)
        _, i2 = loaded.search(tiny_queries, k=5, nprobe=16)
        np.testing.assert_array_equal(i1, i2)

    def test_round_trip_build_stats(self, trained_index, tmp_path):
        path = tmp_path / "index.npz"
        trained_index.save(path)
        loaded = IVFFlatIndex.load(path)
        assert (
            loaded.build_stats().train_elements
            == trained_index.build_stats().train_elements
        )

    def test_save_untrained_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="untrained"):
            IVFFlatIndex(dim=8, nlist=4).save(tmp_path / "x.npz")


class TestDatabasePersistence:
    @pytest.fixture()
    def db(self, tiny_data, tiny_queries):
        db = HarmonyDB(
            dim=32,
            config=HarmonyConfig(
                n_machines=4, nlist=16, nprobe=4, mode=Mode.HARMONY
            ),
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        return db

    def test_round_trip_results_identical(self, db, tiny_queries, tmp_path):
        path = tmp_path / "db.npz"
        db.save(path)
        loaded = HarmonyDB.load(path)
        r1, _ = db.search(tiny_queries, k=5)
        r2, _ = loaded.search(tiny_queries, k=5)
        np.testing.assert_array_equal(r1.ids, r2.ids)
        np.testing.assert_allclose(r1.distances, r2.distances)

    def test_round_trip_preserves_plan(self, db, tmp_path):
        path = tmp_path / "db.npz"
        db.save(path)
        loaded = HarmonyDB.load(path)
        assert loaded.plan.describe() == db.plan.describe()
        np.testing.assert_array_equal(
            loaded.plan.shard_of_list, db.plan.shard_of_list
        )
        np.testing.assert_array_equal(
            loaded.plan.placement, db.plan.placement
        )

    def test_round_trip_preserves_config(
        self, tiny_data, tiny_queries, tmp_path
    ):
        """The whole deployment survives: every config field, and the
        replica placement failover depends on."""
        db = HarmonyDB(
            dim=32,
            config=HarmonyConfig(
                n_machines=4, nlist=16, nprobe=4, replicas=2,
                forced_grid=(2, 1), scan_precision="sq8", enable_cache=True,
            ),
        )
        db.build(tiny_data, sample_queries=tiny_queries)
        path = tmp_path / "db.npz"
        db.save(path)
        loaded = HarmonyDB.load(path)
        assert loaded.config == db.config
        assert loaded.plan.replicas == 2
        np.testing.assert_array_equal(
            loaded.plan.replica_placement, db.plan.replica_placement
        )
        healthy, _ = loaded.search(tiny_queries, k=5)
        loaded.result_cache.invalidate()  # make the next search scan
        loaded.cluster.fail_worker(int(loaded.plan.placement[0, 0]))
        failed_over, _ = loaded.search(tiny_queries, k=5)
        np.testing.assert_array_equal(failed_over.ids, healthy.ids)
        np.testing.assert_array_equal(
            failed_over.distances, healthy.distances
        )

    def test_load_opens_a_file_without_the_newer_keys(
        self, db, tiny_queries, tmp_path
    ):
        """A file written before a knob existed (no ``replicas`` /
        ``forced_grid`` keys, no ``replica_placement`` array) loads
        with that knob's default."""
        import json

        path = tmp_path / "db.npz"
        db.save(path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        assert "replica_placement" not in arrays
        config = json.loads(str(arrays["config"]))
        del config["replicas"], config["forced_grid"]
        arrays["config"] = np.array(json.dumps(config))
        old_path = tmp_path / "old.npz"
        np.savez_compressed(old_path, **arrays)
        loaded = HarmonyDB.load(old_path)
        assert loaded.config == db.config
        r1, _ = db.search(tiny_queries, k=5)
        r2, _ = loaded.search(tiny_queries, k=5)
        np.testing.assert_array_equal(r1.ids, r2.ids)

    @staticmethod
    def _resave_with_config(db, tmp_path, changes):
        import json

        path = tmp_path / "db.npz"
        db.save(path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        config = json.loads(str(arrays["config"]))
        config.update(changes)
        arrays["config"] = np.array(json.dumps(config))
        edited = tmp_path / "edited.npz"
        np.savez_compressed(edited, **arrays)
        return edited

    @pytest.mark.parametrize(
        "key, value",
        [
            ("serve_deadline_fraction", 0.25),
            ("scan_timeout", 0.5),
            ("scan_retries", 3),
            ("serve_deadline_policy", "partial"),
            ("cache_semantic_epsilon", 0.1),
            ("retry_timeout", 1e-3),
            ("max_retries", 5),
            ("hedge_latency_threshold", 2e-3),
        ],
    )
    def test_load_drops_a_retired_knob(
        self, db, tiny_queries, tmp_path, key, value
    ):
        """Every file saved while a retired knob was a field carries
        it; the key is dropped, not refused, and the answers match."""
        path = self._resave_with_config(db, tmp_path, {key: value})
        loaded = HarmonyDB.load(path)
        assert loaded.config == db.config
        r1, _ = db.search(tiny_queries, k=5)
        r2, _ = loaded.search(tiny_queries, k=5)
        np.testing.assert_array_equal(r1.ids, r2.ids)
        np.testing.assert_array_equal(r1.distances, r2.distances)

    def test_load_serves_a_file_saved_with_the_retired_serving_knobs(
        self, db, tiny_queries, tmp_path
    ):
        """A file from when the semantic cache tier and the mid-batch
        deadline policies existed, saved with both switched on, loads
        into the exact cache and the plain server: every served answer,
        cold and cached, is the serial oracle's."""
        from repro.serve import make_serial_oracle, verify_against_oracle

        path = self._resave_with_config(
            db,
            tmp_path,
            {
                "enable_cache": True,
                "cache_semantic_epsilon": 0.1,
                "serve_deadline_policy": "partial",
            },
        )
        loaded = HarmonyDB.load(path)
        try:
            assert loaded.config == db.config.replace(enable_cache=True)
            oracle = make_serial_oracle(loaded)
            with loaded.serve() as server:
                for _ in range(2):  # cold, then answered from the cache
                    responses = [
                        server.submit(q, k=5).result(timeout=30)
                        for q in tiny_queries
                    ]
                    assert not any(r.degraded for r in responses)
                    assert not verify_against_oracle(
                        responses, tiny_queries, oracle
                    )
            assert responses[0].cache_hit
        finally:
            loaded.close()

    def test_load_answers_a_file_saved_with_the_retired_fault_knobs(
        self, db, tiny_queries, tmp_path
    ):
        """A file from when the simulator scripted timed faults, saved
        with its retry, backoff and hedging knobs tuned and degraded
        mode on, loads with degraded mode kept and answers exactly as
        the serial oracle does."""
        from repro.validation import check_exactness

        path = self._resave_with_config(
            db,
            tmp_path,
            {
                "retry_timeout": 1e-3,
                "max_retries": 5,
                "hedge_latency_threshold": 2e-3,
                "degraded_mode": True,
            },
        )
        loaded = HarmonyDB.load(path)
        assert loaded.config == db.config.replace(degraded_mode=True)
        assert check_exactness(loaded, tiny_queries, k=5)

    def test_load_refuses_a_key_that_was_never_a_knob(self, db, tmp_path):
        path = self._resave_with_config(
            db, tmp_path, {"serve_flush_timer_ms": 5.0}
        )
        with pytest.raises(TypeError, match="serve_flush_timer_ms"):
            HarmonyDB.load(path)

    def test_loaded_db_supports_mutations(self, db, tiny_queries, tmp_path):
        path = tmp_path / "db.npz"
        db.save(path)
        loaded = HarmonyDB.load(path)
        loaded.remove(np.arange(5))
        result, _ = loaded.search(tiny_queries, k=5)
        _, ref_ids = loaded.index.search(tiny_queries, k=5, nprobe=4)
        np.testing.assert_array_equal(result.ids, ref_ids)

    def test_save_unbuilt_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="build"):
            HarmonyDB(dim=8).save(tmp_path / "db.npz")

    def test_load_onto_custom_cluster(self, db, tiny_queries, tmp_path):
        from repro.cluster.cluster import Cluster

        path = tmp_path / "db.npz"
        db.save(path)
        loaded = HarmonyDB.load(path, cluster=Cluster(8))
        r, _ = loaded.search(tiny_queries, k=5)
        assert r.ids.shape == (len(tiny_queries), 5)


class TestLoadOpensWhatSaveWrote:
    """``np.savez`` appends ``.npz`` to a name that lacks it; ``load``
    resolves the name the same way, and both writers store the index
    through the index's own state arrays."""

    @pytest.mark.parametrize("as_str", [False, True])
    def test_index_round_trip_without_the_suffix(
        self, trained_index, tiny_queries, tmp_path, as_str
    ):
        path = tmp_path / "snap"
        path = str(path) if as_str else path
        trained_index.save(path)
        assert (tmp_path / "snap.npz").exists()
        loaded = IVFFlatIndex.load(path)
        d1, i1 = trained_index.search(tiny_queries, k=5, nprobe=4)
        d2, i2 = loaded.search(tiny_queries, k=5, nprobe=4)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(d1, d2)

    def test_database_round_trip_without_the_suffix(
        self, tiny_data, tiny_queries, tmp_path, db_factory
    ):
        db = db_factory(tiny_data, tiny_queries)
        db.save(tmp_path / "snap")
        loaded = HarmonyDB.load(tmp_path / "snap")
        r1, _ = db.search(tiny_queries, k=5)
        r2, _ = loaded.search(tiny_queries, k=5)
        np.testing.assert_array_equal(r1.ids, r2.ids)
        # The index's own loader restores the build counters; the
        # deployment loader used to drop them.
        assert loaded.index.build_stats() == db.index.build_stats()

    def test_a_file_named_without_the_suffix_still_opens(
        self, trained_index, tmp_path
    ):
        trained_index.save(tmp_path / "snap.npz")
        (tmp_path / "snap.npz").rename(tmp_path / "snap")
        assert IVFFlatIndex.load(tmp_path / "snap").ntotal == (
            trained_index.ntotal
        )

    def test_a_deployment_file_without_the_index_metadata_loads(
        self, tiny_data, tiny_queries, tmp_path, db_factory
    ):
        """Files written before ``HarmonyDB.save`` went through
        ``IVFFlatIndex.state_arrays`` hold no ``meta`` / ``metric``."""
        db = db_factory(tiny_data, tiny_queries)
        db.save(tmp_path / "db.npz")
        with np.load(tmp_path / "db.npz", allow_pickle=False) as data:
            arrays = {
                name: data[name] for name in data.files
                if name not in ("meta", "metric")
            }
        np.savez_compressed(tmp_path / "old.npz", **arrays)
        loaded = HarmonyDB.load(tmp_path / "old.npz")
        r1, _ = db.search(tiny_queries, k=5)
        r2, _ = loaded.search(tiny_queries, k=5)
        np.testing.assert_array_equal(r1.ids, r2.ids)
        np.testing.assert_array_equal(r1.distances, r2.distances)
