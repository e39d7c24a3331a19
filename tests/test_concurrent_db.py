"""Thread-safety regressions and the routing fast-path cache.

The serving layer made ``HarmonyDB`` a shared object: many caller
threads may hit ``search`` concurrently, and the first two races that
bite are (1) the lazy host-backend spawn (two callers both building
backends; one leaks its worker pool) and (2) the packed-layout /
norm-cache refresh after a mutation (one caller rebuilding while
another scans a half-installed layout). Both are locked now; these
tests hammer them with a barrier start so the old races fail loudly.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.routing import RoutingCache, touched_shards
from conftest import make_db


def _concurrent_search(db, queries, k, n_threads=6, repeats=3):
    """Barrier-aligned concurrent searches; returns per-thread results."""
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []

    def worker(slot):
        try:
            barrier.wait(timeout=30)
            out = []
            for _ in range(repeats):
                result, report = db.search(queries, k=k)
                out.append((result.ids.copy(), result.distances.copy()))
            results[slot] = out
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    return results


class TestConcurrentSearch:
    def test_lazy_backend_spawn_race(self, medium_data, medium_queries):
        """Concurrent first-searches on a fresh db must all be exact."""
        db = make_db(medium_data, nlist=16, nprobe=4, backend="serial")
        try:
            # Reference from a pristine serial execution.
            ref = make_db(
                medium_data, nlist=16, nprobe=4, backend="serial"
            )
            try:
                expected, _ = ref.search(medium_queries, k=10)
            finally:
                ref.close()
            results = _concurrent_search(db, medium_queries, k=10)
            # Exactly one backend was built despite the concurrent spawn.
            assert db._host_backend is not None
            for per_thread in results:
                for ids, distances in per_thread:
                    assert np.array_equal(ids, expected.ids)
                    assert np.array_equal(distances, expected.distances)
        finally:
            db.close()

    def test_layout_refresh_race_after_add(
        self, medium_data, medium_queries
    ):
        """Mutation then concurrent searches: everyone sees the new
        generation's packed layout, never a half-built one."""
        rng = np.random.default_rng(9)
        extra = (
            medium_data[:48] + rng.normal(0, 0.01, (48, medium_data.shape[1]))
        ).astype(np.float32)
        db = make_db(medium_data, nlist=16, nprobe=4, backend="serial")
        try:
            db.search(medium_queries[:4], k=5)  # build layout gen 0
            db.add(extra)  # bumps index.version; layout now stale
            results = _concurrent_search(db, medium_queries, k=10)
            ref = make_db(medium_data, nlist=16, nprobe=4, backend="serial")
            try:
                ref.add(extra)
                expected, _ = ref.search(medium_queries, k=10)
            finally:
                ref.close()
            for per_thread in results:
                for ids, distances in per_thread:
                    assert np.array_equal(ids, expected.ids)
                    assert np.array_equal(distances, expected.distances)
        finally:
            db.close()


class TestRoutingCache:
    def _plan_and_probe(self, db, queries):
        backend = db._executor()
        kernel = backend.kernel
        prepared = kernel.prepare_queries(queries)
        probes = db.index.probe(prepared, db.config.nprobe)
        return kernel, probes

    def test_cache_hits_on_repeated_cells(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, backend="serial")
        try:
            cache = RoutingCache()
            kernel, probes = self._plan_and_probe(db, tiny_queries)
            version = db.index.version
            first = cache.route_for(kernel.plan, probes[0], version)
            again = cache.route_for(kernel.plan, probes[0], version)
            assert again is first
            assert cache.counters() == (1, 1)
            expected = touched_shards(kernel.plan, probes[0])
            assert np.array_equal(first.shards, expected)
        finally:
            db.close()

    def test_version_move_invalidates(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, backend="serial")
        try:
            cache = RoutingCache()
            kernel, probes = self._plan_and_probe(db, tiny_queries)
            cache.route_for(kernel.plan, probes[0], version=7)
            cache.route_for(kernel.plan, probes[0], version=7)
            assert cache.counters() == (1, 1)
            assert len(cache) == 1
            # A new index generation drops every entry.
            cache.route_for(kernel.plan, probes[0], version=8)
            assert cache.counters() == (1, 2)
            assert len(cache) == 1
        finally:
            db.close()

    def test_fifo_eviction_bounds_entries(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, backend="serial")
        try:
            cache = RoutingCache(max_entries=4)
            kernel, probes = self._plan_and_probe(db, tiny_queries)
            for i in range(min(8, probes.shape[0])):
                cache.route_for(kernel.plan, probes[i], version=1)
            assert len(cache) <= 4
        finally:
            db.close()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            RoutingCache(max_entries=0)

    def test_clear(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, backend="serial")
        try:
            cache = RoutingCache()
            kernel, probes = self._plan_and_probe(db, tiny_queries)
            cache.route_for(kernel.plan, probes[0], version=1)
            cache.clear()
            assert len(cache) == 0
        finally:
            db.close()

    def test_kernel_without_cache_still_routes(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, backend="serial")
        try:
            backend = db._executor()
            backend.kernel.routing_cache = None
            result, report = db.search(tiny_queries, k=5)
            assert report.routing_cache_hits == 0
            assert report.routing_cache_misses == 0
            ref = make_db(tiny_data, backend="serial")
            try:
                expected, _ = ref.search(tiny_queries, k=5)
            finally:
                ref.close()
            assert np.array_equal(result.ids, expected.ids)
        finally:
            db.close()

    def test_report_counts_cache_traffic(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, backend="serial")
        try:
            _, cold = db.search(tiny_queries, k=5)
            assert cold.routing_cache_misses > 0
            assert (
                cold.routing_cache_hits + cold.routing_cache_misses
                == len(tiny_queries)
            )
            _, warm = db.search(tiny_queries, k=5)
            # Identical queries replay the same probe cells.
            assert warm.routing_cache_hits == len(tiny_queries)
            assert warm.routing_cache_misses == 0
            payload = warm.to_dict()
            assert payload["routing_cache_hits"] == warm.routing_cache_hits
        finally:
            db.close()

    def test_mutation_invalidates_live_cache(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, backend="serial")
        try:
            _, cold = db.search(tiny_queries, k=5)
            db.search(tiny_queries, k=5)  # fully warm
            rng = np.random.default_rng(4)
            extra = rng.normal(0, 0.5, (16, tiny_data.shape[1]))
            db.add(extra.astype(np.float32))
            _, report = db.search(tiny_queries, k=5)
            # Version moved, so every warm entry was dropped: the run
            # repeats the cold-cache profile exactly (centroids — and
            # hence probe cells — are unchanged by add; hits can only
            # come from cells shared within this batch).
            assert report.routing_cache_misses == cold.routing_cache_misses
            assert report.routing_cache_hits == cold.routing_cache_hits
            assert report.routing_cache_misses > 0
        finally:
            db.close()

    def test_lru_hot_cell_survives_cold_flood(self, tiny_data, tiny_queries):
        """LRU regression: a periodically re-touched hot key outlives
        any number of cold one-shot keys (FIFO evicted it)."""
        db = make_db(tiny_data, backend="serial")
        try:
            cache = RoutingCache(max_entries=4)
            kernel, _ = self._plan_and_probe(db, tiny_queries)
            hot = np.array([0, 1, 2, 3])
            cache.route_for(kernel.plan, hot, version=1)
            for i in range(4, 13):  # nine distinct cold cells
                cold = np.arange(i, i + 4) % 16
                cache.route_for(kernel.plan, cold, version=1)
                cache.route_for(kernel.plan, hot, version=1)  # re-touch
            stats = cache.stats()
            assert stats["evictions"] > 0
            hits_before = stats["hits"]
            cache.route_for(kernel.plan, hot, version=1)
            assert cache.stats()["hits"] == hits_before + 1
            assert len(cache) <= 4
        finally:
            db.close()

    def test_route_for_keys_on_exact_probe_order(
        self, tiny_data, tiny_queries
    ):
        """Full-route memoization: hits on the identical probe order,
        distinct entries for permutations (scan order differs), and
        candidate lists matching the uncached planner split."""
        from repro.core.routing import shard_candidate_lists

        db = make_db(tiny_data, backend="serial")
        try:
            cache = RoutingCache()
            kernel, probes = self._plan_and_probe(db, tiny_queries)
            row = probes[0]
            version = db.index.version
            first = cache.route_for(kernel.plan, row, version)
            again = cache.route_for(kernel.plan, row, version)
            assert again is first
            assert cache.counters() == (1, 1)
            for shard in first.shards:
                np.testing.assert_array_equal(
                    first.lists_for(int(shard)),
                    shard_candidate_lists(kernel.plan, row, int(shard)),
                )
            # A permutation is a different route (scan order differs)…
            reversed_row = row[::-1].copy()
            other = cache.route_for(kernel.plan, reversed_row, version)
            assert cache.counters() == (1, 2)
            # …over the same shard set.
            np.testing.assert_array_equal(
                np.sort(other.shards), np.sort(first.shards)
            )
        finally:
            db.close()

    def test_stats_snapshot_exposes_evictions(self, tiny_data, tiny_queries):
        db = make_db(tiny_data, backend="serial")
        try:
            cache = RoutingCache(max_entries=2)
            kernel, _ = self._plan_and_probe(db, tiny_queries)
            for i in range(5):
                cache.route_for(
                    kernel.plan, np.arange(i, i + 4) % 16, version=1
                )
            stats = cache.stats()
            assert set(stats) == {"hits", "misses", "evictions", "entries"}
            assert stats["evictions"] == 3
            assert stats["entries"] <= 2
        finally:
            db.close()
