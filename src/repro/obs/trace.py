"""Ring-buffered span recording over simulated or wall-clock time.

A :class:`Span` is one half-open interval ``[start, end)`` of activity
on one lane (a simulated node, the client, or a host worker thread),
tagged with a stage name, a paper category (computation /
communication / other — Figures 2(b) and 8), and free-form integer /
float arguments (query index, shard, slice, bytes moved, candidates
alive / pruned).

The :class:`Tracer` records spans into a bounded ring buffer
(:class:`collections.deque` with ``maxlen``), so a long benchmark can
stay traced without unbounded memory: once full, the oldest spans are
dropped and counted in :attr:`Tracer.n_dropped`. When no tracer is
attached to a cluster, the only cost on the hot path is one ``is
None`` check per work item — the simulated timing and the returned
results are bit-identical to an untraced build.

Producers attribute cluster-level work to logical stages through
:meth:`Tracer.context`: the execution engine pushes
``(name, query=…, shard=…, block=…)`` around each cluster call, and
the cluster's own ``compute`` / ``transfer`` recording inherits that
context — the span carries the engine's attribution without the
cluster API having to know about queries.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

#: The paper's time categories (Figures 2(b) and 8).
CATEGORIES = ("computation", "communication", "other")

#: Default ring-buffer capacity (spans). A traced 60-query batch on a
#: 4-machine, 4-slice plan emits a few thousand spans; the default
#: keeps whole benchmark batches while bounding memory at ~tens of MB.
DEFAULT_CAPACITY = 1 << 16

#: Lane id used for host worker threads whose lane was auto-assigned.
HOST_LANE_BASE = 1000


@dataclass(frozen=True)
class Span:
    """One recorded activity interval.

    Attributes:
        name: logical stage (``route``, ``dispatch``, ``scan``,
            ``query-chunk``, ``partial-forward``, ``result``,
            ``merge``, ``prewarm``, …).
        category: paper time category (one of :data:`CATEGORIES`).
        node: lane id — a simulated worker id, ``-1`` for the client,
            ``-2`` for the client's result-merge timeline, or a
            host-thread lane (``>= HOST_LANE_BASE``).
        start / end: interval bounds — simulated seconds for the sim
            backend, host ``perf_counter`` seconds for wall spans.
        args: extra attribution as a sorted ``(key, value)`` tuple
            (hashable, so spans stay frozen).
    """

    name: str
    category: str
    node: int
    start: float
    end: float
    args: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def args_dict(self) -> dict:
        return dict(self.args)

    def arg(self, key: str, default=None):
        for k, v in self.args:
            if k == key:
                return v
        return default


def _category_totals(spans) -> dict[str, float]:
    totals = {category: 0.0 for category in CATEGORIES}
    for span in spans:
        totals[span.category] = totals.get(span.category, 0.0) + span.duration
    return totals


@dataclass(frozen=True)
class Trace:
    """An immutable snapshot of a tracer's ring buffer.

    This is what lands in ``ExecutionReport.trace``: the spans of the
    most recent run, detached from the live recorder so later searches
    cannot mutate an already-returned report.
    """

    spans: tuple
    n_dropped: int = 0

    def __len__(self) -> int:
        return len(self.spans)

    def category_totals(self) -> dict[str, float]:
        """Summed span seconds per paper category.

        For a simulated run with no spans dropped, these reconcile
        with ``ExecutionReport.breakdown`` to float tolerance — the
        invariant the trace-smoke CI job checks.
        """
        return _category_totals(self.spans)

    def node_ids(self) -> list[int]:
        """Distinct lanes touched, ascending."""
        return sorted({span.node for span in self.spans})

    def for_query(self, query_index: int) -> "tuple[Span, ...]":
        """Spans attributed to one query (by the ``query`` arg)."""
        return tuple(
            s for s in self.spans if s.arg("query") == query_index
        )

    def to_chrome(self) -> dict:
        """Chrome ``trace_event`` JSON object (see :mod:`repro.obs.export`)."""
        from repro.obs.export import chrome_trace

        return chrome_trace(self.spans)

    def save_chrome(self, path) -> None:
        """Write the Chrome trace JSON to ``path``."""
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(path, self.spans)

    def to_dict(self) -> dict:
        """JSON-serializable summary (span count + category totals)."""
        return {
            "n_spans": len(self.spans),
            "n_dropped": self.n_dropped,
            "category_totals": self.category_totals(),
        }


class Tracer:
    """Span recorder shared by one cluster / backend.

    Args:
        capacity: ring-buffer size in spans; the oldest spans are
            dropped (and counted) once exceeded.

    Thread safety: :meth:`record` and :meth:`wall_span` may be called
    from host worker threads concurrently; the attribution context is
    thread-local, so one thread's ``context(...)`` never leaks into
    another's spans.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._spans: deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._lanes: dict[int, int] = {}
        self.n_recorded = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(
        self,
        name: str | None,
        category: str,
        node: int,
        start: float,
        end: float,
        **args,
    ) -> None:
        """Record one span; context name / args fill in what's missing.

        ``name=None`` resolves to the innermost context's name (or the
        category itself when no context is active). Explicit ``args``
        win over context args on key collisions.
        """
        if category not in CATEGORIES:
            raise ValueError(
                f"unknown category {category!r}; supported: "
                f"{', '.join(CATEGORIES)}"
            )
        ctx_name, ctx_args = self._current_context()
        if name is None:
            name = ctx_name if ctx_name is not None else category
        merged = dict(ctx_args)
        merged.update(args)
        span = Span(
            name=name,
            category=category,
            node=int(node),
            start=float(start),
            end=float(end),
            args=tuple(sorted(merged.items())),
        )
        with self._lock:
            self._spans.append(span)
            self.n_recorded += 1

    @contextmanager
    def context(self, name: str | None = None, **args):
        """Push attribution for spans recorded inside the block.

        Contexts nest: inner names shadow outer ones, args merge
        (inner wins). The stack is per-thread.
        """
        stack = self._context_stack()
        stack.append((name, args))
        try:
            yield self
        finally:
            stack.pop()

    @contextmanager
    def wall_span(
        self,
        name: str,
        category: str = "computation",
        node: int | None = None,
        **args,
    ):
        """Record the wall-clock duration of the block as one span.

        ``node=None`` assigns a stable per-thread lane id (host
        backends: one lane per worker thread, like one lane per
        simulated node).
        """
        if node is None:
            node = self.thread_lane()
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.record(
                name, category, node, start, time.perf_counter(), **args
            )

    def thread_lane(self) -> int:
        """Stable small lane id for the calling host thread."""
        ident = threading.get_ident()
        with self._lock:
            lane = self._lanes.get(ident)
            if lane is None:
                lane = HOST_LANE_BASE + len(self._lanes)
                self._lanes[ident] = lane
        return lane

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @property
    def n_dropped(self) -> int:
        """Spans evicted from the ring buffer since the last clear."""
        return max(0, self.n_recorded - len(self._spans))

    def spans(self) -> "tuple[Span, ...]":
        with self._lock:
            return tuple(self._spans)

    def trace(self) -> Trace:
        """Immutable snapshot of the current buffer."""
        with self._lock:
            return Trace(spans=tuple(self._spans), n_dropped=self.n_dropped)

    def category_totals(self) -> dict[str, float]:
        return _category_totals(self.spans())

    def clear(self) -> None:
        """Drop all recorded spans (lane assignments persist)."""
        with self._lock:
            self._spans.clear()
            self.n_recorded = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _context_stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _current_context(self) -> "tuple[str | None, dict]":
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None, {}
        name = None
        merged: dict = {}
        for ctx_name, ctx_args in stack:
            if ctx_name is not None:
                name = ctx_name
            merged.update(ctx_args)
        return name, merged


@contextmanager
def _noop_context(*_args, **_kwargs):
    yield None


def trace_context(tracer: "Tracer | None", name: str | None = None, **args):
    """``tracer.context(...)`` or a shared no-op when tracing is off.

    The helper producers use so the untraced hot path stays one branch
    plus one trivial context manager per instrumented call.
    """
    if tracer is None:
        return _noop_context()
    return tracer.context(name=name, **args)
