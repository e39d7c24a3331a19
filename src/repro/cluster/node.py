"""Simulated worker node.

A node is a single-resource timeline: work items (compute or blocking
sends) occupy it from ``max(free_at, earliest)`` for their duration.

Scale-preserving derating
-------------------------
The dataset analogues are roughly ``SCALE_FACTOR`` times smaller than
the paper's (e.g. 20k vs 1M vectors), which shrinks per-query scan work
by the same factor while leaving per-message latency and per-query
orchestration untouched. To keep the paper's compute : communication :
overhead ratios — the quantities every relative result depends on —
worker compute rate and link bandwidth are both derated by
``SCALE_FACTOR`` from the physical platform (56-thread Xeon Gold 6258R,
100 Gb/s links). The *client* keeps the full hardware rate because its
work (ranking ``nlist`` centroids, seeding the heap) does not scale
with dataset size. See DESIGN.md, "Scaling conventions".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.stats import TimeBreakdown

#: Dataset scale-down factor the simulation compensates for.
SCALE_FACTOR = 50.0

#: Physical fp32 element rate of one node (56 threads x AVX-512,
#: derated for memory-bound inverted-list scans).
PHYSICAL_COMPUTE_RATE = 5.0e10

#: Effective worker rate after scale-preserving derating.
DEFAULT_COMPUTE_RATE = PHYSICAL_COMPUTE_RATE / SCALE_FACTOR

#: Client rate: full hardware speed (client work does not scale with
#: dataset size, so it must not be derated).
DEFAULT_CLIENT_COMPUTE_RATE = PHYSICAL_COMPUTE_RATE

#: Idle intervals a node remembers for backfilling. Bounds memory and
#: per-occupy cost; when the list overflows, the *narrowest* gap is
#: forgotten (wide idle windows are the ones later work can use).
MAX_TRACKED_GAPS = 1024


@dataclass
class WorkerNode:
    """One machine in the simulated cluster.

    The node is a single-resource timeline *with backfilling*: work is
    normally appended at ``max(free_at, earliest)``, but when a work
    item's dependencies force an idle gap, the gap is remembered and
    later-submitted items whose dependencies allow it may run inside it.
    This makes the makespan insensitive to the engine's submission
    order, as a real multi-threaded node would be.

    Attributes:
        node_id: identifier (client uses ``-1``).
        compute_rate: fp32 elements processed per simulated second.
        free_at: simulated time at which the node's tail becomes idle.
        breakdown: per-category time accumulated on this node.
        current_bytes / peak_bytes: resident memory tracking for the
            paper's peak-memory experiments (Table 5).
    """

    node_id: int
    compute_rate: float = DEFAULT_COMPUTE_RATE
    free_at: float = 0.0
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    current_bytes: int = 0
    peak_bytes: int = 0
    _gaps: list[list[float]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.compute_rate <= 0:
            raise ValueError("compute_rate must be positive")

    def compute_duration(self, elements: float) -> float:
        """Seconds needed to process ``elements`` fp32 elements."""
        if elements < 0:
            raise ValueError(f"elements must be non-negative, got {elements}")
        return elements / self.compute_rate

    def occupy(
        self, duration: float, earliest: float = 0.0, category: str = "computation"
    ) -> tuple[float, float]:
        """Reserve the node for ``duration`` seconds.

        The work starts no earlier than ``earliest`` (its dependencies)
        and runs either inside a remembered idle gap or after the
        current timeline tail.

        Returns:
            ``(start, end)`` simulated timestamps.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        self.breakdown.charge(category, duration)
        # Backfill: earliest-fitting gap wins.
        for i, gap in enumerate(self._gaps):
            start = max(gap[0], earliest)
            if start + duration <= gap[1]:
                end = start + duration
                replacement = []
                if start - gap[0] > 0.0:
                    replacement.append([gap[0], start])
                if gap[1] - end > 0.0:
                    replacement.append([end, gap[1]])
                self._gaps[i : i + 1] = replacement
                return start, end
        start = max(self.free_at, earliest)
        if start > self.free_at:
            self._gaps.append([self.free_at, start])
            if len(self._gaps) > MAX_TRACKED_GAPS:
                narrowest = min(
                    range(len(self._gaps)),
                    key=lambda i: self._gaps[i][1] - self._gaps[i][0],
                )
                del self._gaps[narrowest]
        end = start + duration
        self.free_at = end
        return start, end

    def allocate(self, nbytes: int) -> None:
        """Track a resident-memory allocation."""
        if nbytes < 0:
            raise ValueError(f"allocation must be non-negative, got {nbytes}")
        self.current_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)

    def release(self, nbytes: int) -> None:
        """Release previously tracked memory."""
        if nbytes < 0:
            raise ValueError(f"release must be non-negative, got {nbytes}")
        self.current_bytes = max(0, self.current_bytes - nbytes)

    def reset_time(self) -> None:
        """Clear the timeline and accounting (memory tracking persists)."""
        self.free_at = 0.0
        self.breakdown = TimeBreakdown()
        self._gaps = []
