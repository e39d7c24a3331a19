"""Tests for the observability subsystem (repro.obs).

Covers the tracer / metrics primitives, the Chrome trace_event and
Prometheus exporters with their validators, and the two stack-level
invariants: (1) attaching a tracer never changes results or simulated
timings on any backend, and (2) a simulated run's span category
totals reconcile with ``ExecutionReport.breakdown``.
"""

import json

import numpy as np
import pytest

from repro.core.config import HarmonyConfig
from repro.core.database import HarmonyDB
from repro.obs import (
    MetricsRegistry,
    Span,
    Trace,
    Tracer,
    chrome_trace,
    report_metrics,
    validate_chrome_trace,
    validate_prometheus,
)
from repro.obs.trace import trace_context

DIM = 24
NQ = 10


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((700, DIM)).astype(np.float32)
    queries = rng.standard_normal((NQ, DIM)).astype(np.float32)
    return base, queries


def make_db(data, **overrides):
    base, queries = data
    config = HarmonyConfig(n_machines=4, nlist=16, nprobe=4, **overrides)
    db = HarmonyDB(dim=DIM, config=config)
    db.build(base, sample_queries=queries)
    return db


class TestTracer:
    def test_record_and_snapshot(self):
        tracer = Tracer()
        tracer.record("scan", "computation", 2, 0.0, 1.5, query=3)
        (span,) = tracer.spans()
        assert span.name == "scan"
        assert span.node == 2
        assert span.duration == 1.5
        assert span.arg("query") == 3
        assert span.arg("missing", -1) == -1

    def test_unknown_category_raises(self):
        with pytest.raises(ValueError, match="unknown category"):
            Tracer().record("x", "sleeping", 0, 0.0, 1.0)

    def test_context_supplies_name_and_args(self):
        tracer = Tracer()
        with tracer.context("scan", query=7, shard=1):
            tracer.record(None, "computation", 0, 0.0, 1.0)
            tracer.record(None, "communication", 0, 1.0, 2.0, shard=9)
        tracer.record(None, "other", 0, 2.0, 3.0)
        spans = tracer.spans()
        assert spans[0].name == "scan"
        assert spans[0].args_dict() == {"query": 7, "shard": 1}
        # Explicit args win over context args.
        assert spans[1].arg("shard") == 9
        # Outside the context the name falls back to the category.
        assert spans[2].name == "other"
        assert spans[2].args == ()

    def test_contexts_nest(self):
        tracer = Tracer()
        with tracer.context("outer", query=1):
            with tracer.context("inner", block=2):
                tracer.record(None, "computation", 0, 0.0, 1.0)
        (span,) = tracer.spans()
        assert span.name == "inner"
        assert span.args_dict() == {"block": 2, "query": 1}

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.record("s", "computation", 0, float(i), float(i) + 1)
        assert tracer.n_dropped == 2
        assert [s.start for s in tracer.spans()] == [2.0, 3.0, 4.0]
        trace = tracer.trace()
        assert trace.n_dropped == 2
        tracer.clear()
        assert tracer.n_dropped == 0
        assert tracer.spans() == ()

    def test_invalid_capacity_raises(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)

    def test_wall_span_measures_block(self):
        tracer = Tracer()
        with tracer.wall_span("work", "computation", node=5, shard=2):
            pass
        (span,) = tracer.spans()
        assert span.node == 5
        assert span.end >= span.start
        assert span.arg("shard") == 2

    def test_wall_span_assigns_thread_lane(self):
        tracer = Tracer()
        with tracer.wall_span("work"):
            pass
        (span,) = tracer.spans()
        assert span.node >= 1000

    def test_trace_context_helper_noops_without_tracer(self):
        with trace_context(None, "scan", query=1):
            pass  # must not raise
        tracer = Tracer()
        with trace_context(tracer, "scan", query=1):
            tracer.record(None, "computation", 0, 0.0, 1.0)
        assert tracer.spans()[0].name == "scan"


class TestTrace:
    def make_trace(self):
        return Trace(
            spans=(
                Span("scan", "computation", 0, 0.0, 1.0, (("query", 0),)),
                Span("send", "communication", 1, 1.0, 1.5, (("query", 1),)),
                Span("merge", "other", -2, 1.5, 2.0, (("query", 0),)),
            )
        )

    def test_category_totals(self):
        totals = self.make_trace().category_totals()
        assert totals == {
            "computation": 1.0, "communication": 0.5, "other": 0.5,
        }

    def test_for_query_and_node_ids(self):
        trace = self.make_trace()
        assert len(trace.for_query(0)) == 2
        assert trace.node_ids() == [-2, 0, 1]

    def test_to_dict_json_safe(self):
        json.dumps(self.make_trace().to_dict(), allow_nan=False)


class TestChromeExport:
    def test_valid_and_well_nested(self):
        trace = Trace(
            spans=(
                Span("a", "computation", 0, 0.0, 1.0),
                Span("b", "computation", 0, 1.0, 2.0),
                Span("c", "communication", 1, 0.5, 1.5),
            )
        )
        obj = trace.to_chrome()
        counts = validate_chrome_trace(obj)
        assert counts["B"] == counts["E"] == 3
        json.dumps(obj, allow_nan=False)

    def test_zero_duration_spans_are_dropped(self):
        obj = chrome_trace([Span("a", "computation", 0, 1.0, 1.0)])
        counts = validate_chrome_trace(obj)
        assert counts["B"] == 0

    def test_lane_metadata_names_nodes(self):
        obj = chrome_trace(
            [
                Span("a", "computation", -1, 0.0, 1.0),
                Span("b", "computation", 2, 0.0, 1.0),
                Span("c", "computation", 1001, 0.0, 1.0),
            ]
        )
        names = {
            e["args"]["name"]
            for e in obj["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"client", "worker 2", "host thread 1"}

    def test_validator_rejects_unordered_ts(self):
        obj = {
            "traceEvents": [
                {"ph": "B", "pid": 1, "tid": 0, "ts": 5.0, "name": "a"},
                {"ph": "E", "pid": 1, "tid": 0, "ts": 2.0},
            ]
        }
        with pytest.raises(ValueError, match="time-ordered"):
            validate_chrome_trace(obj)

    def test_validator_rejects_unmatched_pairs(self):
        obj = {
            "traceEvents": [
                {"ph": "B", "pid": 1, "tid": 0, "ts": 0.0, "name": "a"},
            ]
        }
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace(obj)

    def test_validator_rejects_stray_end(self):
        obj = {
            "traceEvents": [
                {"ph": "E", "pid": 1, "tid": 0, "ts": 0.0},
            ]
        }
        with pytest.raises(ValueError, match="no open B"):
            validate_chrome_trace(obj)


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("x_total").inc(2)
        registry.counter("x_total").inc()
        registry.gauge("g", worker="1").set(0.5)
        registry.histogram("h").observe(3e-6)
        assert registry.counter("x_total").value == 3
        assert registry.gauge("g", worker="1").value == 0.5
        assert registry.histogram("h").count == 1

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            MetricsRegistry().counter("c_total").inc(-1)

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("x_total")

    def test_invalid_names_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("2bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok_total", **{"bad-label": 1})

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 9.0):
            hist.observe(v)
        assert hist.cumulative() == [
            (1.0, 1), (2.0, 2), (float("inf"), 3),
        ]

    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests", worker="0").inc(5)
        registry.gauge("busy", "Busy fraction").set(0.25)
        registry.histogram("lat_seconds", "Latency").observe(1e-4)
        text = registry.to_prometheus()
        samples = validate_prometheus(text)
        assert samples["req_total"] == 1
        # buckets + sum + count
        assert samples["lat_seconds"] == len(
            registry.histogram("lat_seconds").bounds
        ) + 3

    def test_to_dict_json_safe(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(0.5)
        registry.counter("c_total").inc()
        json.dumps(registry.to_dict(), allow_nan=False)

    def test_validate_prometheus_rejects_garbage(self):
        with pytest.raises(ValueError, match="unparseable"):
            validate_prometheus("not a metric line at all {{{\n")
        with pytest.raises(ValueError, match="no samples"):
            validate_prometheus("# TYPE lonely counter\n")


class TestSimulatedTracing:
    @pytest.fixture(scope="class")
    def traced_run(self, data):
        base, queries = data
        db = make_db(data)
        baseline_result, baseline_report = db.search(queries, k=5)
        db.enable_tracing()
        db.attach_metrics()
        result, report = db.search(queries, k=5)
        return db, baseline_result, baseline_report, result, report

    def test_tracing_does_not_change_results(self, traced_run):
        _, r0, rep0, r1, rep1 = traced_run
        np.testing.assert_array_equal(r0.ids, r1.ids)
        np.testing.assert_array_equal(r0.distances, r1.distances)
        assert rep1.simulated_seconds == rep0.simulated_seconds
        np.testing.assert_array_equal(rep1.latencies, rep0.latencies)
        np.testing.assert_array_equal(
            rep1.worker_loads, rep0.worker_loads
        )

    def test_trace_attached_and_populated(self, traced_run):
        _, _, _, _, report = traced_run
        assert report.trace is not None
        assert len(report.trace) > 0
        assert report.trace.n_dropped == 0
        names = {s.name for s in report.trace.spans}
        assert {"route", "dispatch", "scan", "query-chunk"} <= names

    def test_category_totals_reconcile_with_breakdown(self, traced_run):
        _, _, _, _, report = traced_run
        totals = report.trace.category_totals()
        for category in ("computation", "communication", "other"):
            expected = getattr(report.breakdown, category)
            assert totals[category] == pytest.approx(
                expected, rel=1e-9, abs=1e-12
            )

    def test_scan_spans_carry_attribution(self, traced_run):
        _, _, _, _, report = traced_run
        scans = [s for s in report.trace.spans if s.name == "scan"]
        assert scans
        for span in scans:
            assert span.arg("query") is not None
            assert span.arg("shard") is not None
            assert span.arg("block") is not None
            assert span.arg("processed") >= span.arg("alive")

    def test_chrome_export_of_run_is_valid(self, traced_run, tmp_path):
        _, _, _, _, report = traced_run
        path = tmp_path / "trace.json"
        report.trace.save_chrome(path)
        with open(path) as f:
            counts = validate_chrome_trace(json.load(f))
        assert counts["B"] == counts["E"] > 0

    def test_cluster_metrics_populated(self, traced_run):
        db, _, _, _, report = traced_run
        registry = db.metrics
        assert registry.counter("harmony_compute_calls_total", node=0).value
        assert registry.counter("harmony_transferred_bytes_total").value > 0
        report_metrics(report, registry=registry)
        samples = validate_prometheus(registry.to_prometheus())
        assert "harmony_qps" in samples
        assert "harmony_time_seconds" in samples

    def test_second_search_gets_fresh_trace(self, data, traced_run):
        db, _, _, _, first = traced_run
        _, queries = data
        _, second = db.search(queries[:3], k=5)
        assert second.trace is not None
        # The earlier snapshot must be unaffected by the new run.
        assert len(first.trace) > 0
        assert {s.arg("query") for s in second.trace.spans if s.arg(
            "query") is not None} <= {0, 1, 2}

    def test_disable_tracing_restores_untraced_path(self, data):
        db = make_db(data)
        _, queries = data
        db.enable_tracing()
        db.disable_tracing()
        _, report = db.search(queries, k=5)
        assert report.trace is None
        assert db.cluster.tracer is None


class TestHostBackendTracing:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_traced_matches_untraced(self, data, backend):
        _, queries = data
        db = make_db(data, backend=backend)
        r0, _ = db.search(queries, k=5)
        db.enable_tracing()
        r1, report = db.search(queries, k=5)
        np.testing.assert_array_equal(r0.ids, r1.ids)
        np.testing.assert_array_equal(r0.distances, r1.distances)
        assert report.trace is not None
        assert len(report.trace) > 0
        counts = validate_chrome_trace(report.trace.to_chrome())
        assert counts["B"] > 0
        # The batched path records a per-(shard, slice) kernel span.
        scans = [s for s in report.trace.spans if s.name == "scan"]
        assert scans
        assert all(
            s.arg("shard") is not None and s.arg("block") is not None
            for s in scans
        )

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_per_query_path_traced(self, data, backend):
        _, queries = data
        db = make_db(data, backend=backend, batch_queries=False)
        db.enable_tracing()
        _, report = db.search(queries, k=5)
        names = {s.name for s in report.trace.spans}
        assert "query" in names
        assert "scan" in names


class TestBackendTracerSurface:
    def test_simulated_backend_forwards_to_cluster(self, data):
        from repro.cluster.cluster import Cluster
        from repro.core.pipeline import PipelineEngine

        base, queries = data
        db = make_db(data)
        backend = PipelineEngine(db.index, db.plan, Cluster(4), db.config)
        assert backend.tracer is None
        tracer = Tracer()
        backend.tracer = tracer
        assert backend.cluster.tracer is tracer
        backend.run(queries, k=5, nprobe=4)
        assert len(tracer.spans()) > 0


class TestFaultTracing:
    def test_recovery_transfer_is_traced(self, data):
        base, queries = data
        db = make_db(data, replicas=2)
        manager = db.enable_fault_recovery()
        db.enable_tracing()
        db.attach_metrics()
        report = manager.fail(0, now=0.0)
        if report.blocks_copied:
            spans = [
                s for s in db.tracer.spans() if s.name == "re-replicate"
            ]
            assert spans
            assert db.metrics.counter(
                "harmony_repair_bytes_total"
            ).value == report.bytes_copied
