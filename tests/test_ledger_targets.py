"""Tier-1 guard for the frozen perf ledger (``benchmarks/ledger``).

The ledger's traced pass wraps program callables by name
(``benchmarks/ledger/spans.py``) and its oracle selects the per-query
reference loop through ``batch_queries=False``. Both live outside
``src/`` and may not be edited alongside it, so a refactor that renames
or re-homes one of those names would only fail in the benchmark run.
This module resolves every target the way ``Recorder.install`` does.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.config import HarmonyConfig

SPANS_PATH = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "spans.py"
)


@pytest.fixture(scope="module")
def targets():
    spec = importlib.util.spec_from_file_location("ledger_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


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
