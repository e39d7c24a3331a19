"""Tier-1 guard for the frozen perf ledger (``benchmarks/ledger``).

The ledger's traced pass wraps program callables by name
(``benchmarks/ledger/spans.py``), its oracle selects the per-query
reference loop through ``batch_queries=False``, and its workloads build
configs from flat keywords and read flat report / stats names. All of
that lives outside ``src/`` and may not be edited alongside it, so a
refactor that renames or re-homes one of those names would only fail in
the benchmark run. This module resolves every target the way
``Recorder.install`` does and reads every name the ledger reads.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.cache.result_cache import CacheStats
from repro.core.config import HarmonyConfig
from repro.core.database import HarmonyDB
from repro.serve.server import ServeStats

LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"ledger_{name}", LEDGER / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def targets():
    return _load("spans").TARGETS


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _resolve(target):
    module = importlib.import_module(target.module)
    owner = module if target.owner is None else getattr(module, target.owner)
    return owner, vars(owner)[target.attr]


def test_every_span_target_resolves(targets):
    for target in targets:
        _, raw = _resolve(target)
        fn = getattr(raw, "__func__", raw)  # classmethod / staticmethod
        assert callable(fn), target


def test_no_two_targets_share_a_slot(targets):
    """Two names bound to one class would be wrapped (and counted) twice.

    The same function reached through two modules' globals
    (``collect_results``) is two slots and is fine.
    """
    slots = [(id(_resolve(target)[0]), target.attr) for target in targets]
    assert len(slots) == len(set(slots))


def test_oracle_config_selects_the_per_query_loop():
    config = HarmonyConfig().replace(batch_queries=False)
    assert config.batch_queries is False


def test_every_workload_config_constructs_from_flat_keywords(workloads):
    assert set(workloads.CONFIGS) == {
        "batch_fp32", "batch_sq8", "batch_process", "serve_zipf", "mixed_rw"
    }
    for name, overrides in workloads.CONFIGS.items():
        config = HarmonyConfig(**workloads.COMMON, **overrides)
        oracle = config.replace(
            backend="serial", batch_queries=False, forced_grid=(1, 4)
        )
        assert oracle.forced_grid == (1, 4), name


def test_a_report_has_every_attribute_the_ledger_sums(
    workloads, tiny_data, tiny_queries
):
    db = HarmonyDB(
        dim=32,
        config=HarmonyConfig(
            n_machines=4, nlist=16, nprobe=4, backend="serial"
        ),
    )
    db.build(tiny_data, sample_queries=tiny_queries)
    _, report = db.search(tiny_queries, k=5)
    sums = workloads.ReportSums()
    sums.add(report, live_rows=db.index.nlive)
    assert sums.routing_hits + sums.routing_misses > 0
    assert sums.scan_ratio_peak == workloads.scan_ratio(
        report, db.index.nlive
    ) > 0
    assert db._host_backend is db._get_host_backend()
    assert db.plan is not None and db.index is not None


def test_the_process_backend_is_live_and_reports_fallback(
    tiny_data, tiny_queries
):
    db = HarmonyDB(
        dim=32,
        config=HarmonyConfig(
            n_machines=4, nlist=16, nprobe=4, backend="process", n_workers=2
        ),
    )
    db.build(tiny_data, sample_queries=tiny_queries)
    try:
        _, report = db.search(tiny_queries, k=5)
        assert db._host_backend.fallback_active is False
        assert report.worker_steals is None  # read, and summed when set
    finally:
        db.close()


def test_stats_dicts_hold_the_keys_the_ledger_indexes():
    serve = ServeStats().to_dict()
    for key in (
        "mean_batch_size", "batches", "rejected", "shed",
        "slo_violations", "max_queue_depth",
    ):
        assert key in serve, key
    cache = CacheStats().to_dict()
    for key in ("hits", "misses", "evictions"):
        assert key in cache, key
