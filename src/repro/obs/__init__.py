"""Structured observability: per-query tracing, metrics, exporters.

HARMONY's evaluation is an attribution exercise — Figures 2(b) and 8
decompose time into computation / communication / other, and Section 5
validates the cost model against measured per-node load — so the repro
needs instrumentation that can say *which* stage of *which* query on
*which* node the time went to. This package provides it:

- :class:`~repro.obs.trace.Tracer` — ring-buffered per-query spans
  (route, dispatch, per-(shard, slice) scan, prune, merge) over
  simulated time for the discrete-event backend and wall-clock time
  for the host backends. Near-zero overhead when not attached.
- :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  histograms (scans, skipped scans / respawns, pruning ratios,
  queue waits, per-worker busy fractions) with Prometheus-style text
  and JSON exports.
- :mod:`~repro.obs.export` — Chrome ``trace_event`` JSON of the
  cluster timeline (one lane per simulated node), loadable in
  ``about:tracing`` / Perfetto, plus a schema validator.

Everything here is opt-in: with no tracer or registry attached, every
execution path is bit-identical to an untraced build.
"""

from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    validate_prometheus,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    report_metrics,
)
from repro.obs.trace import Span, Trace, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Trace",
    "Tracer",
    "chrome_trace",
    "report_metrics",
    "validate_chrome_trace",
    "validate_prometheus",
    "write_chrome_trace",
]
