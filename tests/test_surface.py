"""The documented surface matches the code.

(a) A deleted name stays deleted: no retired symbol or retired config
field is named in the sources, docs, examples or benchmark scripts,
except on the line that declares ``_RETIRED_CONFIG_FIELDS`` (the
loader needs those names to drop them from old saved configs).

(b) Every name the docs quote resolves: each backticked ``repro.…``
path, and each ``from repro… import …`` line in fenced code, in
``docs/*.md``, ``README.md`` and ``DESIGN.md`` imports and ``getattr``s.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from repro.core.database import _RETIRED_CONFIG_FIELDS

ROOT = Path(__file__).resolve().parents[1]

RETIRED_SYMBOLS = (
    # The serve flush timer.
    "serve_deadline_fraction", "flush_deadline",
    # The thread pool.
    "ThreadBackend", "thread_task_event", "_group_mapper", "map_groups",
    "--threads", "threads.py",
    # The semantic cache tier, the deadline policies and the backoff helper.
    "cache_semantic_epsilon", "semantic_hits", "_semantic_lookup",
    "serve_deadline_policy", "deadline_policy", "RequestTimeout",
    "timed_out", "deadline_exceeded", "_search_with_deadlines",
    "cache-epsilon", "backoff_delay",
    # The simulator's timed fault schedule.
    "FaultSchedule", "FaultEvent", "set_fault_schedule", "fault_schedule",
    "hedge_latency_threshold", "retry_timeout", "max_retries",
    "_robust_compute", "hedge_wins", "dropped_messages",
    "projected_compute_seconds", "fault_events", "cluster.enable_tracing",
    "cluster.events",
    # The wall-clock straggler watchdog.
    "scan_timeout", "scan_retries", "scan_timeouts", "_map_hedged",
    "InjectedWorkerKill", "HostFaultCounters",
    # The work-stealing scheduler and the stall watchdog.
    "_pop_own", "_steal(", "_seed_ranges", "_dispatch_round",
    "_settle_round", "_POLL_SECONDS", "_STALL_SECONDS", "_SETTLE_GRACE",
    "_MAX_BARREN_REQUEUES", "last_steal_counts", "total_steals",
    "harmony_worker_steals_total", "flush_results",
    # The second serving-study runner and the unused experiment plumbing.
    "serve-bench", "admission_study", "make_setup", "run_mode",
    "run_faiss_baseline", "BenchSetup",
)

DECLARATION = "_RETIRED_CONFIG_FIELDS = "

DOCS = sorted((ROOT / "docs").glob("*.md")) + [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
]

def _scanned_files() -> "list[Path]":
    """The files the retired-name check reads.

    Bytecode caches and locally generated packaging metadata (which
    copies an old README) are not sources.
    """
    files = []
    for top in ("src", "docs", "examples"):
        for path in sorted((ROOT / top).rglob("*")):
            parts = path.relative_to(ROOT).parts
            if any(p == "__pycache__" or p.endswith(".egg-info") for p in parts):
                continue
            if path.is_file():
                files.append(path)
    files += [ROOT / "README.md", ROOT / "DESIGN.md"]
    files += sorted((ROOT / "benchmarks").glob("*.py"))
    return files


def _retired_mentions(files, names) -> "list[str]":
    hits = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            if DECLARATION in line:
                continue
            for name in names:
                if name in line:
                    where = path.relative_to(ROOT)
                    hits.append(f"{where}:{lineno}: {name}")
    return hits


def test_retired_names_are_named_nowhere():
    names = sorted(set(RETIRED_SYMBOLS) | set(_RETIRED_CONFIG_FIELDS))
    assert _retired_mentions(_scanned_files(), names) == []


def _resolve(dotted: str) -> None:
    """Import the longest module prefix of ``dotted``, getattr the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name is not None and module_name.startswith(exc.name):
                continue
            raise
        break
    for attr in parts[split:]:
        obj = getattr(obj, attr)


_BACKTICKED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")
_FROM_IMPORT = re.compile(r"^\s*from\s+(repro[\w.]*)\s+import\s+(.+)$")


def _fenced_imports(text: str) -> "list[tuple[str, str]]":
    """``(module, name)`` for every ``from repro… import …`` in fences."""
    out = []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        match = _FROM_IMPORT.match(line) if in_fence else None
        if match is not None:
            module, names = match.group(1), match.group(2).split("#")[0]
            out += [(module, name.strip()) for name in names.split(",")]
    return out


def _doc_names() -> "list[tuple[str, str]]":
    """``(where, dotted name)`` for every name the docs quote."""
    names = []
    for path in DOCS:
        text = path.read_text(encoding="utf-8")
        where = str(path.relative_to(ROOT))
        names += [(where, m) for m in _BACKTICKED.findall(text)]
        names += [
            (where, f"{module}.{name}")
            for module, name in _fenced_imports(text)
        ]
    return sorted(set(names))


def test_doc_names_resolve():
    names = _doc_names()
    assert len(names) > 40, "the extractor found too few names"
    failures = []
    for where, name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError) as exc:
            failures.append(f"{where}: `{name}`: {exc}")
    assert failures == []


def test_extractor_and_resolver_catch_misspellings():
    text = """
Prose `repro.core.routingg.touched_shards` quoted inline.

```python
from repro.core.routing import touched_shards  # comment
from repro.index import FaissLikeIVF, simulated_faiss_seconds
```
from repro.not_in_a_fence import anything
"""
    assert _BACKTICKED.findall(text) == ["repro.core.routingg.touched_shards"]
    assert _fenced_imports(text) == [
        ("repro.core.routing", "touched_shards"),
        ("repro.index", "FaissLikeIVF"),
        ("repro.index", "simulated_faiss_seconds"),
    ]
    _resolve("repro.core.routing.RoutingCache.route_for")
    for bad in (
        "repro.core.routingg.touched_shards",
        "repro.core.routing.RoutingCache.shards_for",
        "repro.bench.harness",
    ):
        with pytest.raises((ImportError, AttributeError)):
            _resolve(bad)
