"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestDatasetsCommand:
    def test_lists_all_ten(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("sift1m", "glove2.2m", "sift1b", "handoutlines"):
            assert name in out

    def test_shows_paper_sizes(self, capsys):
        main(["datasets"])
        out = capsys.readouterr().out
        assert "1,000,000,000" in out  # the billion-scale rows


class TestRunCommand:
    def test_basic_run(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "sift1m",
                "--size",
                "600",
                "--queries",
                "10",
                "--nlist",
                "8",
                "--nprobe",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "simulated QPS" in out
        assert "recall@10" in out
        assert "latency" in out

    def test_mode_flag(self, capsys):
        main(
            [
                "run",
                "--dataset",
                "sift1m",
                "--size",
                "600",
                "--queries",
                "10",
                "--nlist",
                "8",
                "--mode",
                "harmony-vector",
            ]
        )
        out = capsys.readouterr().out
        assert "vector plan" in out

    def test_no_pruning_flag(self, capsys):
        main(
            [
                "run",
                "--dataset",
                "sift1m",
                "--size",
                "600",
                "--queries",
                "10",
                "--nlist",
                "8",
                "--mode",
                "harmony-dimension",
                "--no-pruning",
            ]
        )
        out = capsys.readouterr().out
        assert "pruned per slice: 0% 0% 0% 0%" in out

    def test_invalid_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--mode", "roundrobin"])

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            main(["run", "--dataset", "imagenet", "--size", "100"])

    def test_missing_latencies_prints_na(self, capsys, monkeypatch):
        # Regression: latency_percentile(99) raised RuntimeError when a
        # report carried no per-query latencies.
        import numpy as np

        from repro.core.database import HarmonyDB

        real_search = HarmonyDB.search

        def strip_latencies(self, *args, **kwargs):
            result, report = real_search(self, *args, **kwargs)
            report.latencies = np.zeros(0, dtype=np.float64)
            return result, report

        monkeypatch.setattr(HarmonyDB, "search", strip_latencies)
        code = main(
            ["run", "--dataset", "sift1m", "--size", "600",
             "--queries", "10", "--nlist", "8", "--nprobe", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p99 n/a" in out

    def test_trace_and_metrics_flags(self, capsys, tmp_path):
        trace_path = tmp_path / "run-trace.json"
        metrics_path = tmp_path / "run-metrics.prom"
        code = main(
            ["run", "--dataset", "sift1m", "--size", "600",
             "--queries", "10", "--nlist", "8", "--nprobe", "2",
             "--trace", str(trace_path), "--metrics", str(metrics_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "metrics:" in out

        import json

        from repro.obs.export import (
            validate_chrome_trace,
            validate_prometheus,
        )

        with open(trace_path) as f:
            counts = validate_chrome_trace(json.load(f))
        assert counts["B"] > 0
        validate_prometheus(metrics_path.read_text())


class TestTraceCommand:
    """``run --trace --metrics``: the files CI's trace smoke validates."""

    def test_trace_run_exports_valid_files(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.prom"
        code = main(
            ["run", "--dataset", "sift1m", "--size", "600",
             "--queries", "6", "--nlist", "8", "--nprobe", "2",
             "--trace", str(trace_path), "--metrics", str(metrics_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace totals: computation" in out
        # The live registry was attached before the search, so the dump
        # carries the cluster's own series beside the report's.
        assert "harmony_compute_calls_total" in metrics_path.read_text()

        import json

        from repro.obs.validate import main as validate_main

        assert validate_main(
            [str(trace_path), "--metrics", str(metrics_path)]
        ) == 0
        with open(trace_path) as f:
            obj = json.load(f)
        assert any(e["ph"] == "B" for e in obj["traceEvents"])

    def test_trace_subcommand_is_gone(self):
        with pytest.raises(SystemExit):
            main(["trace", "--dataset", "sift1m"])

    def test_validator_exit_code_on_bad_trace(self, tmp_path, capsys):
        import json

        from repro.obs.validate import main as validate_main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [
            {"ph": "E", "pid": 1, "tid": 0, "ts": 0.0},
        ]}))
        assert validate_main([str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestPlanCommand:
    def test_plan_output(self, capsys):
        code = main(
            ["plan", "--dataset", "sift1m", "--size", "600", "--nlist", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "<== chosen" in out
        assert "4 x 1" in out
        assert "1 x 4" in out


class TestTuneCommand:
    def test_tune_output(self, capsys):
        code = main(
            [
                "tune",
                "--dataset",
                "sift1m",
                "--size",
                "600",
                "--nlist",
                "8",
                "--target-recall",
                "0.9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "<== chosen" in out
        assert "target recall@10 >= 0.9" in out


class TestCapacityCommand:
    def test_trivial_target_met(self, capsys):
        code = main(
            [
                "capacity",
                "--dataset",
                "sift1m",
                "--size",
                "600",
                "--nlist",
                "8",
                "--target-recall",
                "0.8",
                "--target-qps",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recommendation:" in out
        assert "<== chosen" in out

    def test_unreachable_target_exit_code(self, capsys):
        code = main(
            [
                "capacity",
                "--dataset",
                "sift1m",
                "--size",
                "600",
                "--nlist",
                "8",
                "--target-qps",
                "1e15",
            ]
        )
        assert code == 2
        assert "target NOT met" in capsys.readouterr().out

    def test_target_qps_required(self):
        with pytest.raises(SystemExit):
            main(["capacity", "--dataset", "sift1m"])


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])
