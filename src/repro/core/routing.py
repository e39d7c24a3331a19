"""Query load distribution and dimension-order scheduling.

Implements the routing half of the paper's Figure 4 — mapping a query's
probed inverted lists to the vector shards / grid blocks that must be
visited — plus Section 4.3's static execution-order policy,
*staggering*: consecutive queries start their dimension pipeline on
different machines (Figure 5(b)'s ``Q1 -> D1, Q2 -> D2, Q3 -> D3``) so
no two in-flight queries contend for the same slice stage. The
load-aware policy ("if M1 becomes overloaded, subsequent queries
process D1 last") needs the replica actually chosen and the loads of
the round it runs in, so it lives with the engine that has both:
:meth:`repro.core.pipeline.PipelineEngine._least_loaded_first`, a
block generator the engine hands the kernel's ``drive_steps`` as its
order.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.partition import PartitionPlan


def touched_shards(plan: PartitionPlan, probe_row: np.ndarray) -> np.ndarray:
    """Vector shards a query must visit, ascending and deduplicated.

    Args:
        plan: the active partition plan.
        probe_row: the query's probed inverted-list ids.
    """
    return np.unique(plan.shard_of_list[np.asarray(probe_row, dtype=np.int64)])


@dataclass(frozen=True)
class CachedRoute:
    """One memoized routing decision for an exact probe order.

    Carries everything the scan kernel derives from the planner for a
    single query: the touched-shard set *and* the per-shard candidate
    list splits, in the query's exact probe order. Keying on the probe
    order (not the sorted cell) is what keeps cached routes
    byte-identical — candidate lists are scanned in probe order, so two
    permutations of the same cell are legitimately different routes.
    """

    shards: np.ndarray
    lists_by_shard: dict = field(default_factory=dict)

    def lists_for(self, shard: int) -> np.ndarray:
        """The query's probed lists living in ``shard``, probe-ordered."""
        return self.lists_by_shard[int(shard)]


class RoutingCache:
    """Memoized per-query routing with bounded LRU eviction.

    Skewed serving traffic repeats itself: a hot query probes the same
    inverted lists in the same order over and over, and the planner's
    routing for that probe order never changes while the index
    generation is stable. :meth:`route_for` memoizes the full
    per-shard candidate-list split the kernel needs, keyed on the
    **exact probe order**, so repeated queries skip the planner while
    staying byte-identical.

    Entries are validated against ``IVFFlatIndex.version``: any add or
    effective delete moves the version and atomically drops the whole
    cache, the same staleness protocol the packed layouts use. The map
    is a bounded LRU (capacity ``max_entries``): a lookup refreshes the
    entry's recency, and inserts past capacity evict the least recently
    used entry — a hot key survives any cold-key flood. Hit / miss /
    eviction counts are kept on the instance and surfaced through
    ``ExecutionReport.routing_cache_*`` and the
    ``harmony_routing_cache_{hits,misses,evictions}_total`` metric
    families.

    Thread safety: all methods take the internal lock, so concurrent
    searches through one kernel share the cache without racing. The
    returned arrays are shared — callers must treat them as read-only
    (every current caller only iterates).
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError(
                f"max_entries must be positive, got {max_entries}"
            )
        self.max_entries = int(max_entries)
        self._routes: OrderedDict[tuple, CachedRoute] = OrderedDict()
        self._version: int | None = None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._routes)

    def _check_version(self, version: int) -> None:
        """Drop every entry when the index generation moves (locked)."""
        if self._version != version:
            self._routes.clear()
            self._version = version

    def route_for(
        self, plan: PartitionPlan, probe_row: np.ndarray, version: int
    ) -> CachedRoute:
        """Cached full routing decision for one exact probe order.

        Memoizes both the touched-shard set and the per-shard candidate
        lists (:func:`shard_candidate_lists`) so a hot query skips the
        planner entirely. Keyed on the exact probe order, which the
        candidate lists preserve — cached routes are byte-identical to
        freshly planned ones by construction.
        """
        probe_row = np.asarray(probe_row, dtype=np.int64)
        key = tuple(probe_row.ravel().tolist())
        with self._lock:
            self._check_version(version)
            cached = self._routes.get(key)
            if cached is not None:
                self.hits += 1
                self._routes.move_to_end(key)
                return cached
            self.misses += 1
        shards = touched_shards(plan, probe_row)
        shards.setflags(write=False)
        lists_by_shard = {}
        for shard in shards:
            lists_here = shard_candidate_lists(plan, probe_row, shard)
            lists_here.setflags(write=False)
            lists_by_shard[int(shard)] = lists_here
        route = CachedRoute(shards=shards, lists_by_shard=lists_by_shard)
        with self._lock:
            if self._version == version and key not in self._routes:
                if len(self._routes) >= self.max_entries:
                    self._routes.popitem(last=False)
                    self.evictions += 1
                self._routes[key] = route
        return route

    def counters(self) -> "tuple[int, int]":
        """Consistent ``(hits, misses)`` snapshot."""
        with self._lock:
            return self.hits, self.misses

    def stats(self) -> dict:
        """Consistent counter + occupancy snapshot."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._routes),
            }

    def clear(self) -> None:
        with self._lock:
            self._routes.clear()
            self._version = None


def shard_candidate_lists(
    plan: PartitionPlan, probe_row: np.ndarray, shard: int
) -> np.ndarray:
    """The query's probed lists that live in ``shard``."""
    probe_row = np.asarray(probe_row, dtype=np.int64)
    return probe_row[plan.shard_of_list[probe_row] == shard]


def staggered_order(
    n_blocks: int, query_index: int, shard: int
) -> np.ndarray:
    """Rotation-staggered slice order for one (query, shard) pipeline.

    Query ``i`` on shard ``v`` starts at slice ``(i + v) mod B`` and
    wraps around, so simultaneous queries occupy different stages.
    """
    if n_blocks <= 0:
        raise ValueError(f"n_blocks must be positive, got {n_blocks}")
    offset = (query_index + shard) % n_blocks
    return (np.arange(n_blocks, dtype=np.int64) + offset) % n_blocks
