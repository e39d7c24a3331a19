"""Counters, gauges, and histograms with Prometheus / JSON export.

A :class:`MetricsRegistry` holds metric *families* (one name, one
type, one help string) of labelled *series* (one per distinct label
set), mirroring the Prometheus exposition model:

    registry = MetricsRegistry()
    registry.counter("harmony_skipped_scans_total").inc(3)
    registry.gauge("harmony_worker_busy_fraction", worker="2").set(0.81)
    registry.histogram("harmony_queue_wait_seconds").observe(1.2e-5)
    print(registry.to_prometheus())

Metric names follow Prometheus conventions (``snake_case``, unit
suffix, ``_total`` for counters). :func:`report_metrics` maps one
:class:`~repro.core.results.ExecutionReport` — scans, fault counters,
pruning ratios, per-worker loads and busy fractions, latency
percentiles — into a registry, so every simulated run can publish the
quantities behind the paper's Figures 2(b), 7, and 8 without touching
the engine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.results import REPORT_FAMILIES

#: Default histogram bucket upper bounds (seconds): spans microseconds
#: to seconds, the range of simulated per-stage waits and latencies.
DEFAULT_BUCKETS = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 1.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: dict) -> tuple:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing count."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    def __init__(self, buckets: tuple = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"bucket bounds must be strictly increasing, got {buckets}"
            )
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1

    def cumulative(self) -> "list[tuple[float, int]]":
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out = [(bound, c) for bound, c in zip(self.bounds, self.counts)]
        out.append((float("inf"), self.count))
        return out


@dataclass
class _Family:
    kind: str
    help: str
    buckets: tuple | None = None
    series: dict = field(default_factory=dict)


class MetricsRegistry:
    """A set of named metric families with labelled series.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create: the first
    call fixes the family's type (and help / buckets); later calls
    with the same name return the series for the given labels,
    raising on type mismatches instead of silently aliasing.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def _series(
        self,
        name: str,
        kind: str,
        help: str,
        labels: dict,
        buckets: tuple | None = None,
    ):
        _check_name(name)
        family = self._families.get(name)
        if family is None:
            family = _Family(kind=kind, help=help, buckets=buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        key = _label_key(labels)
        series = family.series.get(key)
        if series is None:
            if kind == "counter":
                series = Counter()
            elif kind == "gauge":
                series = Gauge()
            else:
                series = Histogram(family.buckets or DEFAULT_BUCKETS)
            family.series[key] = series
        return series

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._series(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._series(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple | None = None,
        **labels,
    ) -> Histogram:
        return self._series(name, "histogram", help, labels, buckets=buckets)

    def families(self) -> "list[str]":
        return sorted(self._families)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.series):
                series = family.series[key]
                if family.kind == "histogram":
                    for bound, count in series.cumulative():
                        le = "+Inf" if bound == float("inf") else (
                            _format_value(bound)
                        )
                        bucket_key = key + (("le", le),)
                        lines.append(
                            f"{name}_bucket"
                            f"{_format_labels(tuple(sorted(bucket_key)))}"
                            f" {count}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(key)} "
                        f"{_format_value(series.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(key)} {series.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_format_labels(key)} "
                        f"{_format_value(series.value)}"
                    )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """Strictly JSON-serializable dump of every series."""
        out: dict = {}
        for name in sorted(self._families):
            family = self._families[name]
            series_out = []
            for key in sorted(family.series):
                series = family.series[key]
                entry: dict = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry["count"] = series.count
                    entry["sum"] = series.sum
                    entry["buckets"] = [
                        {
                            "le": ("+Inf" if b == float("inf") else b),
                            "count": c,
                        }
                        for b, c in series.cumulative()
                    ]
                else:
                    entry["value"] = series.value
                series_out.append(entry)
            out[name] = {
                "type": family.kind,
                "help": family.help,
                "series": series_out,
            }
        return out


def report_metrics(
    report, registry: "MetricsRegistry | None" = None
) -> MetricsRegistry:
    """Publish one :class:`ExecutionReport` into a registry.

    Maps the report's aggregates onto Prometheus-style families:
    query / scan counts, simulated QPS and makespan, the
    computation / communication / other breakdown (Figures 2(b), 8),
    per-worker loads and busy fractions (Section 5's ``Load(n, pi)``),
    per-slice pruning ratios (Figure 2(a), Table 3), fault counters
    (skipped / abandoned scans, worker respawns, requeued tasks),
    degraded-mode coverage, and the simulated latency distribution.
    """
    registry = registry if registry is not None else MetricsRegistry()
    # The flat fields: each family is declared on its report field.
    values = vars(report)
    for name, kind, family, help, only_nonzero in REPORT_FAMILIES:
        value = float(values[name])
        if kind == "gauge":
            registry.gauge(family, help).set(value)
        elif value or not only_nonzero:
            registry.counter(family, help).inc(value)
    registry.gauge("harmony_qps", "Simulated queries per second").set(
        report.qps
    )
    breakdown = report.breakdown
    for category in ("computation", "communication", "other"):
        registry.gauge(
            "harmony_time_seconds",
            "Summed per-node seconds by paper category",
            category=category,
        ).set(getattr(breakdown, category))
    utilization = report.worker_utilization()
    for worker, load in enumerate(report.worker_loads):
        registry.gauge(
            "harmony_worker_load_seconds",
            "Computation seconds per worker (Load(n, pi))",
            worker=worker,
        ).set(float(load))
        registry.gauge(
            "harmony_worker_busy_fraction",
            "Worker computation busy fraction of the makespan",
            worker=worker,
        ).set(float(utilization[worker]))
    registry.gauge(
        "harmony_load_imbalance", "Std dev of worker loads (I(pi))"
    ).set(report.load_imbalance)
    if report.pruning is not None:
        total_scans = float(report.pruning.totals[0])
        registry.counter(
            "harmony_scan_candidates_total",
            "Candidates entering the dimension pipeline",
        ).inc(total_scans)
        for position, ratio in enumerate(report.pruning.ratios()):
            registry.gauge(
                "harmony_pruning_ratio",
                "Fraction already pruned entering each slice position",
                position=position,
            ).set(float(ratio))
    if report.fault_stats is not None:
        for key, value in report.fault_stats.to_dict().items():
            registry.counter(
                f"harmony_{key}_total", f"Fault handling: {key}"
            ).inc(value)
    if report.degraded is not None:
        registry.gauge(
            "harmony_mean_coverage", "Mean degraded-mode coverage"
        ).set(report.degraded.mean_coverage)
        registry.gauge(
            "harmony_recall_vs_healthy",
            "Recall of degraded answers vs a healthy rerun",
        ).set(report.degraded.recall_vs_healthy)
    if report.latencies.size:
        latency = registry.histogram(
            "harmony_query_latency_seconds",
            "Per-query simulated latency (dispatch to final merge)",
        )
        for value in report.latencies:
            latency.observe(float(value))
    return registry
