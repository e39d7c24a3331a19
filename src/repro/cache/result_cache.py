"""Bounded segmented-LRU result cache of exact, byte-identical hits.

Real serving traffic repeats itself: recommendation / RAG workloads
re-issue the same queries under a Zipf popularity law, so the
cheapest "scan" is the one that never happens. :class:`ResultCache`
memoizes finished top-K answers keyed on the full request identity —
``(query bytes, k, nprobe, metric, filter)`` — and serves them back
when an incoming query's float32 bytes equal a cached query's bytes.
The cached ``(ids, distances)`` are returned *byte-identically*,
skipping routing and scanning entirely. A hit can never change a
result: the key includes every input that influences the answer.

Invalidation is generation-based, the same staleness protocol the
packed layouts use: every entry belongs to the
``(index uid, index version, layout generation)`` the answer was
computed under, and any mismatch — a mutation, a compaction, or a
whole new index object — atomically drops the cache and counts the
dropped entries as invalidations. Degraded / partial-coverage answers
must never be inserted (the caller enforces this; see
``HarmonyDB._cached_search``).

Capacity is a segmented LRU (the classic SLRU of Karedla et al.):
first-time entries land in a *probation* segment; a repeat hit
promotes to a *protected* segment capped at 80% of capacity. One-hit
wonders from a cold scan therefore wash through probation without
evicting the hot working set — exactly the protection a Zipf stream
needs.

All methods are thread-safe behind one lock; stored arrays are
defensive read-only copies, so callers can hold returned views across
later mutations.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

#: Fraction of capacity reserved for the protected (repeat-hit) segment.
PROTECTED_FRACTION = 0.8

#: Trace lane for ``cache-lookup`` spans (host worker threads occupy
#: lanes 1000+, the serving front end lane 3000).
CACHE_LANE = 3500


def make_filter_key(filter_labels) -> "tuple | None":
    """Canonical hashable key for a ``filter_labels`` argument.

    Order and duplicates never change the allowed-vector mask, so they
    must not fragment cache entries.
    """
    if filter_labels is None:
        return None
    labels = np.asarray(filter_labels).ravel()
    return tuple(sorted({int(x) for x in labels}))


@dataclass(frozen=True)
class CacheHit:
    """One served cache lookup.

    Attributes:
        ids / distances: the cached top-K answer (read-only arrays,
            byte-identical to the original search).
    """

    ids: np.ndarray
    distances: np.ndarray


@dataclass(frozen=True)
class CacheStats:
    """Consistent counter snapshot of a :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries: int = 0
    bytes: int = 0

    def to_dict(self) -> dict:
        return dict(vars(self))  # the declared counters, in field order


@dataclass
class _Entry:
    """One cached answer plus everything eviction accounting needs."""

    ids: np.ndarray
    distances: np.ndarray
    nbytes: int


class ResultCache:
    """Thread-safe segmented-LRU cache of finished search answers.

    Args:
        max_entries: total capacity across both segments.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ValueError(
                f"max_entries must be positive, got {max_entries}"
            )
        self.max_entries = int(max_entries)
        self._protected_cap = max(
            1, int(self.max_entries * PROTECTED_FRACTION)
        )
        self._lock = threading.Lock()
        self._probation: OrderedDict[tuple, _Entry] = OrderedDict()
        self._protected: OrderedDict[tuple, _Entry] = OrderedDict()
        self._generation: "tuple | None" = None
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._probation) + len(self._protected)

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------

    @staticmethod
    def _key(
        query: np.ndarray, k: int, nprobe: int, metric: str, filter_key
    ) -> tuple:
        return (query.tobytes(), int(k), int(nprobe), str(metric), filter_key)

    # ------------------------------------------------------------------
    # Generation handling
    # ------------------------------------------------------------------

    def _check_generation(self, generation: tuple) -> None:
        """Flush everything when the index/layout generation moves
        (locked). Dropped entries count as invalidations — this is the
        mutation-invalidates-cache path, not capacity pressure."""
        if self._generation != generation:
            dropped = len(self._probation) + len(self._protected)
            if dropped:
                self.invalidations += dropped
            self._probation.clear()
            self._protected.clear()
            self._bytes = 0
            self._generation = generation

    def invalidate(self) -> int:
        """Explicitly drop every entry (mutation hook). Returns the
        number of entries invalidated."""
        with self._lock:
            dropped = len(self._probation) + len(self._protected)
            if dropped:
                self.invalidations += dropped
            self._probation.clear()
            self._protected.clear()
            self._bytes = 0
            self._generation = None
            return dropped

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def lookup(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int,
        metric: str,
        filter_key,
        generation: tuple,
        record_miss: bool = True,
    ) -> "CacheHit | None":
        """Probe the cache for one prepared query row.

        ``query`` must already be the kernel-prepared (float32,
        cosine-normalized when applicable) row — byte identity is only
        meaningful on the exact representation the scan would consume.
        Set ``record_miss=False`` for advisory probes (the serve
        layer's pre-enqueue peek) so a later authoritative lookup
        doesn't double-count the miss.
        """
        key = self._key(query, k, nprobe, metric, filter_key)
        with self._lock:
            self._check_generation(generation)
            entry = self._probation.pop(key, None)
            if entry is not None:
                # Probation hit: promote into the protected segment.
                self._admit_protected(key, entry)
                self.hits += 1
                return CacheHit(ids=entry.ids, distances=entry.distances)
            entry = self._protected.get(key)
            if entry is not None:
                self._protected.move_to_end(key)
                self.hits += 1
                return CacheHit(ids=entry.ids, distances=entry.distances)
            if record_miss:
                self.misses += 1
        return None

    def insert(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int,
        metric: str,
        filter_key,
        generation: tuple,
        ids: np.ndarray,
        distances: np.ndarray,
    ) -> None:
        """Cache one finished answer.

        Callers must not insert degraded / partial-coverage answers —
        those are wrong to replay once the cluster heals.
        """
        key = self._key(query, k, nprobe, metric, filter_key)
        ids = np.array(ids, copy=True)
        distances = np.array(distances, copy=True)
        for arr in (ids, distances):
            arr.setflags(write=False)
        # The key holds the query's bytes: they count toward residency.
        entry = _Entry(
            ids=ids,
            distances=distances,
            nbytes=len(key[0]) + int(ids.nbytes + distances.nbytes),
        )
        with self._lock:
            self._check_generation(generation)
            if key in self._probation or key in self._protected:
                return
            while (
                len(self._probation) + len(self._protected)
                >= self.max_entries
            ):
                self._evict_one()
            self._probation[key] = entry
            self._bytes += entry.nbytes

    # ------------------------------------------------------------------
    # Internal bookkeeping (all locked)
    # ------------------------------------------------------------------

    def _admit_protected(self, key: tuple, entry: _Entry) -> None:
        """Promote a probation hit; overflow demotes the protected LRU
        back to probation (its recency restarts) instead of evicting."""
        self._protected[key] = entry
        self._protected.move_to_end(key)
        while len(self._protected) > self._protected_cap:
            demoted_key, demoted = self._protected.popitem(last=False)
            self._probation[demoted_key] = demoted

    def _evict_one(self) -> None:
        """Drop the best eviction victim: probation LRU first."""
        if self._probation:
            key, entry = self._probation.popitem(last=False)
        elif self._protected:
            key, entry = self._protected.popitem(last=False)
        else:
            return
        self.evictions += 1
        self._bytes -= entry.nbytes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidations=self.invalidations,
                entries=len(self._probation) + len(self._protected),
                bytes=self._bytes,
            )

    def clear(self) -> None:
        """Drop all entries without touching counters (test helper)."""
        with self._lock:
            self._probation.clear()
            self._protected.clear()
            self._bytes = 0
            self._generation = None
