"""Result cache: exact hits, SLRU behavior, generation invalidation.

Unit tests drive :class:`repro.cache.ResultCache` directly; the
integration class checks the cache wired through ``HarmonyDB.search``
stays byte-identical to the uncached execution and surfaces its
counters through reports and metrics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import CacheHit, ResultCache, make_filter_key
from repro.core.config import HarmonyConfig
from repro.obs.metrics import MetricsRegistry, report_metrics

from conftest import make_db

GEN_A = ("uid-a", 0, 1)
GEN_B = ("uid-a", 1, 1)


def _query(seed: int, dim: int = 8) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim).astype(np.float32)


def _answer(k: int = 5, offset: int = 0):
    ids = np.arange(offset, offset + k, dtype=np.int64)
    distances = np.linspace(0.0, 1.0, k).astype(np.float32) + offset
    return ids, distances


def _insert(cache, query, offset=0, k=5, nprobe=4, generation=GEN_A,
            filter_key=None):
    ids, distances = _answer(k, offset)
    cache.insert(query, k, nprobe, "l2", filter_key, generation,
                 ids, distances)
    return ids, distances


def _lookup(cache, query, k=5, nprobe=4, generation=GEN_A,
            filter_key=None, record_miss=True):
    return cache.lookup(query, k, nprobe, "l2", filter_key, generation,
                        record_miss=record_miss)


class TestFilterKey:
    def test_none_passthrough(self):
        assert make_filter_key(None) is None

    def test_order_and_duplicates_canonicalized(self):
        assert make_filter_key([3, 1, 3]) == (1, 3)
        assert make_filter_key((1, 3)) == make_filter_key(np.array([3, 1]))


class TestExactTier:
    def test_miss_then_hit_byte_identical(self):
        cache = ResultCache(max_entries=8)
        q = _query(0)
        assert _lookup(cache, q) is None
        ids, distances = _insert(cache, q)
        hit = _lookup(cache, q)
        assert isinstance(hit, CacheHit)
        np.testing.assert_array_equal(hit.ids, ids)
        np.testing.assert_array_equal(hit.distances, distances)
        assert hit.ids.tobytes() == ids.tobytes()
        assert not hit.ids.flags.writeable
        assert not hit.distances.flags.writeable
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)

    def test_key_includes_every_request_input(self):
        cache = ResultCache(max_entries=8)
        q = _query(1)
        _insert(cache, q)
        assert _lookup(cache, q, k=7) is None
        assert _lookup(cache, q, nprobe=8) is None
        assert cache.lookup(q, 5, 4, "cosine", None, GEN_A) is None
        assert _lookup(cache, q, filter_key=(1, 2)) is None
        assert _lookup(cache, q) is not None

    def test_advisory_probe_does_not_count_miss(self):
        cache = ResultCache(max_entries=8)
        assert _lookup(cache, _query(2), record_miss=False) is None
        assert cache.stats().misses == 0

    def test_duplicate_insert_is_noop(self):
        cache = ResultCache(max_entries=8)
        q = _query(3)
        _insert(cache, q, offset=0)
        before = cache.stats()
        _insert(cache, q, offset=100)  # must not replace the answer
        after = cache.stats()
        assert after.entries == before.entries == 1
        assert after.bytes == before.bytes
        hit = _lookup(cache, q)
        assert int(hit.ids[0]) == 0

    def test_stored_answer_is_a_defensive_copy(self):
        cache = ResultCache(max_entries=8)
        q = _query(4)
        ids, distances = _answer()
        cache.insert(q, 5, 4, "l2", None, GEN_A, ids, distances)
        ids[:] = -1
        distances[:] = -1.0
        hit = _lookup(cache, q)
        assert int(hit.ids[0]) == 0
        assert float(hit.distances[0]) == 0.0

    def test_near_duplicate_is_a_miss(self):
        """Only the query's exact bytes hit: a query 1e-4 away from a
        cached one is scanned, never answered with its neighbor's
        result."""
        cache = ResultCache(max_entries=8)
        q = _query(60)
        _insert(cache, q)
        assert _lookup(cache, q + np.float32(1e-4)) is None
        assert cache.stats().hits == 0


class TestSegmentedLRU:
    def test_hot_entry_survives_cold_flood(self):
        cache = ResultCache(max_entries=4)
        hot = _query(10)
        _insert(cache, hot)
        assert _lookup(cache, hot) is not None  # promoted to protected
        for i in range(10):
            _insert(cache, _query(100 + i))
        assert len(cache) <= 4
        assert cache.stats().evictions > 0
        assert _lookup(cache, hot) is not None

    def test_one_hit_wonder_evicted_first(self):
        cache = ResultCache(max_entries=2)
        hot, cold_a, cold_b = _query(20), _query(21), _query(22)
        _insert(cache, hot)
        assert _lookup(cache, hot) is not None
        _insert(cache, cold_a)
        _insert(cache, cold_b)  # capacity: evicts cold_a (probation LRU)
        assert _lookup(cache, hot) is not None
        assert _lookup(cache, cold_a) is None
        assert cache.stats().evictions == 1

    def test_protected_overflow_demotes_not_evicts(self):
        cache = ResultCache(max_entries=5)  # protected cap = 4
        queries = [_query(30 + i) for i in range(5)]
        for q in queries:
            _insert(cache, q)
        for q in queries:
            assert _lookup(cache, q) is not None  # promote all five
        stats = cache.stats()
        assert stats.entries == 5
        assert stats.evictions == 0
        for q in queries:  # demoted entries are still resident
            assert _lookup(cache, q) is not None

    def test_bytes_accounting_tracks_evictions(self):
        cache = ResultCache(max_entries=2)
        _insert(cache, _query(40))
        one_entry = cache.stats().bytes
        assert one_entry > 0
        _insert(cache, _query(41))
        _insert(cache, _query(42))
        assert cache.stats().bytes == 2 * one_entry
        cache.invalidate()
        assert cache.stats().bytes == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=0)


class TestGenerationInvalidation:
    def test_generation_move_flushes_and_counts(self):
        cache = ResultCache(max_entries=8)
        _insert(cache, _query(50))
        _insert(cache, _query(51))
        assert _lookup(cache, _query(50), generation=GEN_B) is None
        stats = cache.stats()
        assert stats.invalidations == 2
        assert stats.entries == 0

    def test_stale_insert_flushed_by_next_generation(self):
        cache = ResultCache(max_entries=8)
        _insert(cache, _query(52), generation=GEN_A)
        _insert(cache, _query(53), generation=GEN_B)
        assert cache.stats().invalidations == 1
        assert _lookup(cache, _query(53), generation=GEN_B) is not None

    def test_explicit_invalidate(self):
        cache = ResultCache(max_entries=8)
        _insert(cache, _query(54))
        _insert(cache, _query(55))
        assert cache.invalidate() == 2
        assert cache.stats().invalidations == 2
        assert _lookup(cache, _query(54)) is None

    def test_clear_keeps_counters(self):
        cache = ResultCache(max_entries=8)
        _insert(cache, _query(56))
        _lookup(cache, _query(56))
        cache.clear()
        stats = cache.stats()
        assert stats.entries == 0
        assert stats.hits == 1
        assert stats.invalidations == 0


class TestConfigValidation:
    def test_cache_knobs_validated(self):
        with pytest.raises(ValueError, match="cache_size"):
            HarmonyConfig(cache_size=0)
        with pytest.raises(ValueError, match="routing_cache_size"):
            HarmonyConfig(routing_cache_size=0)

    def test_cache_off_by_default(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, tiny_queries)
        try:
            assert db.result_cache is None
            _, report = db.search(tiny_queries, k=5)
            assert report.result_cache_hits == 0
            assert report.result_cache_misses == 0
        finally:
            db.close()


class TestDatabaseIntegration:
    def test_warm_repeat_is_byte_identical(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, tiny_queries, enable_cache=True)
        try:
            n = tiny_queries.shape[0]
            cold, cold_report = db.search(tiny_queries, k=5)
            assert cold_report.result_cache_misses == n
            assert cold_report.result_cache_hits == 0
            warm, warm_report = db.search(tiny_queries, k=5)
            np.testing.assert_array_equal(warm.ids, cold.ids)
            np.testing.assert_array_equal(warm.distances, cold.distances)
            assert warm.ids.tobytes() == cold.ids.tobytes()
            assert warm_report.result_cache_hits == n
            assert warm_report.result_cache_misses == 0
            assert "[result cache]" in warm_report.plan_summary
            stats = db.result_cache.stats()
            assert stats.entries == n
            assert stats.bytes > 0
        finally:
            db.close()

    def test_matches_uncached_deployment(self, tiny_data, tiny_queries):
        cached = make_db(tiny_data, tiny_queries, enable_cache=True)
        plain = make_db(tiny_data, tiny_queries)
        try:
            for _ in range(2):  # cold then warm
                got, _ = cached.search(tiny_queries, k=5)
                ref, _ = plain.search(tiny_queries, k=5)
                np.testing.assert_array_equal(got.ids, ref.ids)
                np.testing.assert_array_equal(got.distances, ref.distances)
        finally:
            cached.close()
            plain.close()

    def test_filtered_searches_keyed_separately(
        self, tiny_data, tiny_queries
    ):
        from repro.core.database import HarmonyDB

        labels = (np.arange(tiny_data.shape[0]) % 3).astype(np.int64)
        db = HarmonyDB(
            dim=tiny_data.shape[1],
            config=HarmonyConfig(
                n_machines=4, nlist=16, nprobe=4, enable_cache=True, seed=0
            ),
        )
        db.build(tiny_data, sample_queries=tiny_queries, labels=labels)
        try:
            plain, _ = db.search(tiny_queries, k=5)
            filtered, report = db.search(
                tiny_queries, k=5, filter_labels=[1]
            )
            # The filter is part of the key: no cross-contamination.
            assert report.result_cache_hits == 0
            assert not np.array_equal(plain.ids, filtered.ids)
            warm, warm_report = db.search(
                tiny_queries, k=5, filter_labels=np.array([1])
            )
            np.testing.assert_array_equal(warm.ids, filtered.ids)
            assert warm_report.result_cache_hits == tiny_queries.shape[0]
        finally:
            db.close()

    def test_mutation_invalidates_and_recovers(
        self, tiny_data, tiny_queries
    ):
        db = make_db(tiny_data, tiny_queries, enable_cache=True)
        try:
            db.search(tiny_queries, k=5)
            rng = np.random.default_rng(7)
            db.add(rng.standard_normal((24, 32)).astype(np.float32))
            # add() flushes eagerly — counted at mutation time.
            assert db.result_cache.stats().invalidations >= 1
            result, report = db.search(tiny_queries, k=5)
            assert report.result_cache_hits == 0
            _, ref_ids = db.index.search(tiny_queries, k=5, nprobe=4)
            np.testing.assert_array_equal(result.ids, ref_ids)
            _, warm_report = db.search(tiny_queries, k=5)
            assert warm_report.result_cache_hits == tiny_queries.shape[0]
        finally:
            db.close()

    def test_remove_invalidates(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, tiny_queries, enable_cache=True)
        try:
            db.search(tiny_queries, k=5)
            db.remove(np.arange(4))
            assert db.result_cache.stats().invalidations >= 1
            _, ref_ids = db.index.search(tiny_queries, k=5, nprobe=4)
            result, _ = db.search(tiny_queries, k=5)
            np.testing.assert_array_equal(result.ids, ref_ids)
        finally:
            db.close()

    def test_cache_probe(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, tiny_queries, enable_cache=True)
        try:
            assert db.cache_probe(tiny_queries[0], k=5) is None
            assert db.result_cache.stats().misses == 0  # advisory only
            db.search(tiny_queries[:1], k=5)
            hit = db.cache_probe(tiny_queries[0], k=5)
            assert hit is not None
            result, _ = db.search(tiny_queries[:1], k=5)
            np.testing.assert_array_equal(hit.ids, result.ids[0])
        finally:
            db.close()

    def test_report_and_metrics_surface_counters(
        self, tiny_data, tiny_queries
    ):
        db = make_db(tiny_data, tiny_queries, enable_cache=True)
        try:
            db.search(tiny_queries, k=5)
            _, report = db.search(tiny_queries, k=5)
            payload = report.to_dict()
            for field in (
                "result_cache_hits",
                "result_cache_misses",
                "result_cache_evictions",
                "result_cache_invalidations",
                "result_cache_bytes",
                "routing_cache_evictions",
            ):
                assert field in payload
            registry = MetricsRegistry()
            report_metrics(report, registry)
            families = registry.families()
            assert "harmony_result_cache_hits_total" in families
            assert "harmony_result_cache_bytes" in families
        finally:
            db.close()

    def test_save_load_roundtrip_keeps_cache_config(
        self, tmp_path, tiny_data, tiny_queries
    ):
        from repro.core.database import HarmonyDB

        db = make_db(
            tiny_data,
            tiny_queries,
            enable_cache=True,
            cache_size=33,
            routing_cache_size=77,
        )
        path = tmp_path / "db.npz"
        try:
            db.save(path)
        finally:
            db.close()
        loaded = HarmonyDB.load(path)
        try:
            assert loaded.config.enable_cache is True
            assert loaded.config.cache_size == 33
            assert loaded.config.routing_cache_size == 77
            assert loaded.result_cache is not None
            cold, _ = loaded.search(tiny_queries, k=5)
            warm, report = loaded.search(tiny_queries, k=5)
            np.testing.assert_array_equal(warm.ids, cold.ids)
            assert report.result_cache_hits == tiny_queries.shape[0]
        finally:
            loaded.close()
