"""Unit tests for repro.core.config."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.core.config import HarmonyConfig, Mode, resolve_mode
from repro.distance.metrics import Metric


class TestMode:
    def test_values_match_paper_cli(self):
        assert Mode.HARMONY.value == "harmony"
        assert Mode.VECTOR.value == "harmony-vector"
        assert Mode.DIMENSION.value == "harmony-dimension"

    def test_resolve_from_string(self):
        assert resolve_mode("harmony") is Mode.HARMONY
        assert resolve_mode("Harmony-Vector") is Mode.VECTOR

    def test_resolve_passthrough(self):
        assert resolve_mode(Mode.DIMENSION) is Mode.DIMENSION

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown mode"):
            resolve_mode("roundrobin")


class TestHarmonyConfig:
    def test_defaults(self):
        config = HarmonyConfig()
        assert config.n_machines == 4
        assert config.mode is Mode.HARMONY
        assert config.metric is Metric.L2
        assert config.enable_pruning
        assert config.enable_pipeline
        assert config.enable_load_balance

    def test_string_coercion(self):
        config = HarmonyConfig(metric="cosine", mode="harmony-dimension")
        assert config.metric is Metric.COSINE
        assert config.mode is Mode.DIMENSION

    # One bad value per validation rule (plus NaN, which every range rule
    # must refuse, and both forced_grid entries), with the exact text the
    # hand-written checks produced before they became a rule table.
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_machines": 0}, "n_machines must be positive, got 0"),
            ({"nlist": 0}, "nlist must be positive, got 0"),
            ({"nprobe": 0}, "nprobe must be positive, got 0"),
            ({"alpha": -1.0}, "alpha must be non-negative, got -1.0"),
            (
                {"prewarm_size": -1},
                "prewarm_size must be non-negative, got -1",
            ),
            ({"plan_sample": 0}, "plan_sample must be positive, got 0"),
            (
                {"forced_grid": (0, 2)},
                "forced_grid entries must be positive, got (0, 2)",
            ),
            ({"replicas": 9}, "replicas must be in [1, n_machines], got 9"),
            (
                {"backend": "gpu"},
                "unknown backend 'gpu'; supported backends: process, "
                "serial, sim, thread",
            ),
            ({"n_threads": 0}, "n_threads must be positive, got 0"),
            ({"n_workers": 0}, "n_workers must be positive, got 0"),
            (
                {"delta_compact_ratio": float("nan")},
                "delta_compact_ratio must be positive, got nan",
            ),
            ({"n_threads": float("nan")}, "n_threads must be positive, got nan"),
            (
                {"memory_bandwidth": float("nan")},
                "memory_bandwidth must be positive or None, got nan",
            ),
            (
                {"serve_slo_ms": float("nan")},
                "serve_slo_ms must be positive, got nan",
            ),
            (
                {"forced_grid": (2, 0)},
                "forced_grid entries must be positive, got (2, 0)",
            ),
            (
                {"scan_precision": "fp16"},
                "unknown scan_precision 'fp16'; supported precisions: "
                "fp32, sq8",
            ),
            (
                {"delta_compact_ratio": 0.0},
                "delta_compact_ratio must be positive, got 0.0",
            ),
            (
                {"memory_bandwidth": 0.0},
                "memory_bandwidth must be positive or None, got 0.0",
            ),
            ({"serve_max_batch": 0}, "serve_max_batch must be positive, got 0"),
            ({"serve_slo_ms": 0.0}, "serve_slo_ms must be positive, got 0.0"),
            (
                {"mode": "roundrobin"},
                "unknown mode 'roundrobin'; supported modes: harmony, "
                "harmony-vector, harmony-dimension",
            ),
            (
                {"serve_queue_depth": 0},
                "serve_queue_depth must be positive, got 0",
            ),
            (
                {"serve_shed_policy": "drop"},
                "unknown serve_shed_policy 'drop'; supported policies: "
                "degrade_nprobe, reject, shed_oldest",
            ),
            ({"replicas": 0}, "replicas must be in [1, n_machines], got 0"),
            ({"cache_size": 0}, "cache_size must be positive, got 0"),
            ({"alpha": float("nan")}, "alpha must be non-negative, got nan"),
            (
                {"routing_cache_size": 0},
                "routing_cache_size must be positive, got 0",
            ),
            (
                {"metric": "hamming"},
                "unknown metric 'hamming'; supported metrics: l2, ip, cosine",
            ),
        ],
    )
    def test_invalid_values_raise(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            HarmonyConfig(**kwargs)

    def test_optional_knobs_accept_none_and_names_normalize(self):
        config = HarmonyConfig(
            n_threads=None,
            backend="Serial",
            scan_precision="SQ8",
            serve_shed_policy="degrade-nprobe",
            forced_grid=[2, 2],
        )
        assert config.backend == "serial"
        assert config.scan_precision == "sq8"
        assert config.serve_shed_policy == "degrade_nprobe"
        assert config.forced_grid == (2, 2)

    def test_every_field_is_in_the_api_reference(self):
        """docs/api.md holds the one configuration table; a knob added
        without a row there, or a row left for a retired knob, fails
        here."""
        api = Path(__file__).resolve().parents[1] / "docs" / "api.md"
        table = api.read_text(encoding="utf-8")
        names = {field.name for field in dataclasses.fields(HarmonyConfig)}
        missing = [name for name in names if f"| `{name}` |" not in table]
        assert not missing
        rows = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
        assert [row for row in rows if row not in names] == []

    def test_kernel_and_host_options_name_the_backend_keywords(self):
        config = HarmonyConfig(
            backend="process", n_workers=3, scan_precision="sq8",
            auto_compact=False,
        )
        kernel = config.kernel_options()
        assert kernel == dict(
            prewarm_size=32, enable_pruning=True, scan_precision="sq8",
            delta_compact_ratio=0.25, auto_compact=False,
            routing_cache_size=4096,
        )
        assert config.host_options() == dict(
            kernel, batch_queries=True, degraded_mode=False, n_workers=3,
        )
        assert "n_threads" in config.replace(backend="thread").host_options()
        serial = config.replace(backend="serial").host_options()
        assert "n_workers" not in serial and "n_threads" not in serial

    def test_replace(self):
        config = HarmonyConfig(nlist=32)
        changed = config.replace(nprobe=2, enable_pruning=False)
        assert changed.nlist == 32
        assert changed.nprobe == 2
        assert not changed.enable_pruning
        assert config.nprobe == 8  # original untouched
