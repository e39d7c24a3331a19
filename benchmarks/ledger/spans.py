"""Outside-in span recorder for the ledger's traced pass.

The program under test is not edited: :class:`Recorder` swaps each
layer's *public* callables (class methods, and the module-level names a
layer imported from another) for timing wrappers, and puts the originals
back when the pass ends. Spans stay in memory until then.

Each span is ``(id, name, lane, start, end, parent, request, counts)``:

- ``lane`` numbers the thread that ran it (0 = the load generator);
- ``parent`` is the enclosing span on the same thread, or — for a span
  that opens on a pool thread with nothing above it — the
  ``backend.search`` span that was dispatching at that moment (recorded
  as ``adopted`` so self-time accounting can tell the two apart);
- ``request`` is whatever the runner stored in :attr:`Recorder.request`
  on that thread (the operation's index in the stream);
- ``counts`` is what the target's ``count`` hook read off the call
  (rows scored, rows gathered, offers retained ...).

A span's self time is its duration minus its same-thread children.
Summed over a single-threaded pass, self times equal the time spent
inside root spans, which is how the pass is reconciled with its wall.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module:owner.attr`` or ``module:attr``."""

    span: str
    module: str
    owner: "str | None"
    attr: str
    count: "object | None" = None  # fn(args, kwargs, result) -> tuple


def _result(args, kwargs, result):
    return (result,)


def _first_len(args, kwargs, result):
    return (len(result[0]),)


def _offered_retained(args, kwargs, result):
    # TopKHeap.push_many(self, scores, ids) -> retained
    return (len(args[1]), result)


def _batch_rows(args, kwargs, result):
    # HarmonyDB.search(self, queries, ...): rows of the query block
    queries = args[1] if len(args) > 1 else kwargs["queries"]
    return (1 if getattr(queries, "ndim", 2) == 1 else len(queries),)


_PRUNING = "repro.core.pruning"
_LAYOUT = "repro.core.layout"
_KERNEL = "repro.core.executor.kernel"

#: The layer boundaries, outermost first. Only coarse callables are
#: wrapped (``push_many``, never ``push``) so a traced single-query
#: search carries ~20 spans and stays within the 5 % overhead budget.
TARGETS: "tuple[Target, ...]" = (
    Target("db.search", "repro.core.database", "HarmonyDB", "search", _batch_rows),
    Target("db.build", "repro.core.database", "HarmonyDB", "build"),
    Target("db.add", "repro.core.database", "HarmonyDB", "add"),
    Target("db.remove", "repro.core.database", "HarmonyDB", "remove"),
    Target("db.compact", "repro.core.database", "HarmonyDB", "compact"),
    Target("serve.submit", "repro.serve.server", "HarmonyServer", "submit"),
    Target("cache.lookup", "repro.cache.result_cache", "ResultCache", "lookup"),
    Target("cache.insert", "repro.cache.result_cache", "ResultCache", "insert"),
    Target("backend.search", "repro.core.executor.base", "HostBackend", "search"),
    Target("backend.search", "repro.core.executor.process", "ProcessBackend", "search"),
    Target("kernel.search", _KERNEL, "ScanKernel", "search_one"),
    Target("kernel.search", _KERNEL, "ScanKernel", "search_batch"),
    Target("kernel.prewarm", _KERNEL, "ScanKernel", "begin_query"),
    Target("kernel.collect", "repro.core.executor.base", None, "collect_results"),
    Target("kernel.collect", "repro.core.executor.process", None, "collect_results"),
    Target("index.probe", "repro.index.ivf", "IVFFlatIndex", "probe"),
    Target("index.train", "repro.index.ivf", "IVFFlatIndex", "train"),
    Target("index.add", "repro.index.ivf", "IVFFlatIndex", "add"),
    Target("index.remove", "repro.index.ivf", "IVFFlatIndex", "remove_ids"),
    Target("planner.plan", "repro.core.planner", "QueryPlanner", "profile"),
    Target("planner.plan", "repro.core.planner", "QueryPlanner", "choose"),
    Target("routing.route", "repro.core.routing", "RoutingCache", "route_for"),
    Target("layout.gather", _LAYOUT, "ShardPackedBase", "gather", _first_len),
    Target("layout.gather", _LAYOUT, "ShardPackedBase", "gather_sq8", _first_len),
    Target("layout.build", _LAYOUT, "ShardPackedBase", "build"),
    Target("layout.refresh", _LAYOUT, "ShardPackedBase", "refresh"),
    Target("layout.shm_sync", _LAYOUT, "SharedShardPackedBase", "from_packed"),
    Target("layout.shm_sync", _LAYOUT, "SharedShardPackedBase", "sync_overlay"),
    Target("pruning.score", _PRUNING, "ShardScan", "process_slice", _result),
    Target("pruning.score", _PRUNING, "ShardGroupScan", "process_slice", _result),
    Target("pruning.score", _PRUNING, "SQ8ShardScan", "process_slice", _result),
    Target("pruning.score", _PRUNING, "SQ8ShardGroupScan", "process_slice", _result),
    Target("pruning.prune", _PRUNING, "ShardScan", "prune", _result),
    Target("pruning.prune", _PRUNING, "ShardGroupScan", "prune", _result),
    Target("pruning.rerank", _PRUNING, "SQ8ShardScan", "survivors", _first_len),
    Target("pruning.rerank", _PRUNING, "SQ8ShardGroupScan", "survivors", _first_len),
    Target("distance.partial", _PRUNING, None, "partial_squared_l2"),
    Target("distance.partial", _PRUNING, None, "partial_inner_product"),
    Target("heap.push", "repro.core.heap", "TopKHeap", "push_many", _offered_retained),
)

#: Pool threads with an empty stack adopt the open span of this name.
DISPATCH_SPAN = "backend.search"


class Recorder:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = False
        self._ids = itertools.count()
        self._tls = threading.local()
        self._lanes: dict[int, int] = {}
        self._lane_lock = threading.Lock()
        self._dispatching: "int | None" = None
        self._originals: list[tuple] = []
        self._pid = os.getpid()

    # -- the runner tags the operation it is about to issue -------------

    @property
    def request(self):
        return getattr(self._tls, "request", None)

    @request.setter
    def request(self, value) -> None:
        self._tls.request = value

    # -- install / restore ----------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner = module if target.owner is None else getattr(module, target.owner)
            raw = vars(owner)[target.attr]
            self._originals.append((owner, target.attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, target))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            setattr(owner, target.attr, wrapped)
        self.enabled = True

    def restore(self) -> None:
        self.enabled = False
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- the wrapper -----------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            with self._lane_lock:
                lane = self._lanes.setdefault(
                    threading.get_ident(), len(self._lanes)
                )
            self._tls.lane = lane
            self._tls.stack = []
            return self._tls.stack

    def _wrap(self, fn, target: Target):
        recorder = self
        name = target.span
        count = target.count
        dispatches = name == DISPATCH_SPAN
        clock = time.perf_counter
        tls = self._tls
        spans = self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            # Forked pool workers inherit the wrappers; they must not
            # pay for (or grow) a span list nobody will ever read.
            if not recorder.enabled or os.getpid() != recorder._pid:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(ids)
            adopted = False
            if stack:
                parent = stack[-1]
            else:
                parent = recorder._dispatching
                adopted = parent is not None
            stack.append(span_id)
            if dispatches:
                outer, recorder._dispatching = recorder._dispatching, span_id
            counts = ()
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                if dispatches:
                    recorder._dispatching = outer
                spans.append(
                    (
                        span_id, name, tls.lane, start, end, parent, adopted,
                        getattr(tls, "request", None), counts,
                    )
                )

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


@dataclass
class LayerTotals:
    """Per span name: call count, busy seconds, self seconds, counts."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: "tuple[float, ...]" = ()


def aggregate(spans: "list[tuple]") -> "dict[str, LayerTotals]":
    """Fold spans into per-name totals with self times.

    A child is subtracted from its parent only when both ran on the
    same thread: a parent waiting on a pool thread's work was not
    executing that work, and the wait is its own (dispatch) self time.
    """
    child_s: dict[int, float] = defaultdict(float)
    for _id, _name, _lane, start, end, parent, adopted, _req, _counts in spans:
        if parent is not None and not adopted:
            child_s[parent] += end - start
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span_id, name, _lane, start, end, _parent, _adopted, _req, counts in spans:
        layer = totals[name]
        duration = end - start
        layer.calls += 1
        layer.total_s += duration
        layer.self_s += duration - child_s.get(span_id, 0.0)
        if counts:
            if layer.counts:
                layer.counts = tuple(
                    a + b for a, b in zip(layer.counts, counts)
                )
            else:
                layer.counts = tuple(counts)
    return dict(totals)


def write_trace(path, spans: "list[tuple]", origin: float, limit: int) -> int:
    """Write the first ``limit`` spans as Chrome ``trace_event`` JSON.

    Goes through :func:`repro.obs.export.write_chrome_trace` so the file
    opens in Perfetto / ``about:tracing`` like the program's own traces.
    Each event's args carry ``id``, ``parent`` and ``request``; lanes are
    the recorder's thread lanes. Returns the number of spans written.
    """
    from repro.obs.export import write_chrome_trace
    from repro.obs.trace import HOST_LANE_BASE, Span

    # Outer spans first at equal start, so B/E pairs nest per lane.
    chosen = sorted(spans, key=lambda s: s[0])[:limit]
    chosen.sort(key=lambda s: (s[3], -s[4]))
    converted = []
    for span_id, name, lane, start, end, parent, adopted, request, _c in chosen:
        args = [("id", span_id)]
        if parent is not None:
            args.append(("adopted_by" if adopted else "parent", parent))
        if request is not None:
            args.append(("request", str(request)))
        converted.append(
            Span(
                name=name,
                category=name.split(".", 1)[0],
                node=HOST_LANE_BASE + lane,
                start=max(0.0, start - origin),
                end=max(0.0, end - origin),
                args=tuple(args),
            )
        )
    write_chrome_trace(path, converted)
    return len(converted)
