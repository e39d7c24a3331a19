"""The documented surface matches the code.

(a) A deleted name stays deleted: no retired symbol or retired config
field is named in the sources, docs, examples or benchmark scripts,
except on the line that declares ``_RETIRED_CONFIG_FIELDS`` (the
loader needs those names to drop them from old saved configs).

(b) Every name the docs quote resolves: each backticked ``repro.…``
path, and each ``from repro… import …`` line in fenced code, in
``docs/*.md``, ``README.md`` and ``DESIGN.md`` imports and ``getattr``s;
each backticked ``Class.attr`` whose ``Class`` a ``repro`` module
defines names a member of that class.

(c) Every module earns a row. ``REACHABILITY`` maps each module under
``src/repro/`` (package ``__init__`` modules and ``__main__`` aside) to
the one reason it exists, and every reason is checked against the file
it cites:

- ``("paper", row)``: the ``docs/paper_mapping.md`` row whose first
  cell contains ``row`` (exactly one does) names the module's file;
- ``("ledger", workload)``: the workload is in ``BENCHMARK.json``, and
  the module holds a span target of ``benchmarks/ledger/spans.py`` or a
  ledger script imports it;
- ``("cli", command)``: ``python -m repro <command>`` exists, and the
  CLI module imports the module;
- ``("api", caller, name)``: ``docs/api.md`` names the module's dotted
  path, and ``caller`` — a CI workflow, the CLI or another ``src/``
  module; never a test, an example or a bench script — names ``name``,
  which is the dotted path itself or a class attribute or top-level
  name the module defines (a module only a bench calls belongs under
  ``benchmarks/``);
- ``("used-by", M)``: ``M`` has a row of its own and its source imports
  the module by its dotted path (a package re-export does not count).
  Following ``used-by`` from any module ends at one of the four above.

A module no row reaches is deleted or merged, not given a row.

(d) Every knob has a caller: each ``HarmonyConfig`` field is passed as a
keyword by some call in ``src/`` (``config.py`` aside) or
``benchmarks/``. A knob only tests and examples set has one value in
use, and becomes a constant.

(e) Every public def has a caller: each public function or method in
``src/`` is named in ``src/``, ``benchmarks/`` or ``examples/`` outside
its own lines, or in ``docs/api.md``. One only tests reach is deleted.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import re
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import _build_parser
from repro.core.config import HarmonyConfig
from repro.core.database import _RETIRED_CONFIG_FIELDS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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
    # The modules no reachability row reached, and the trace subcommand.
    "DriftMonitor", "DriftStatus", "DistributedKMeans", "distributed_kmeans",
    "render_timeline", "utilization_grid", "repro.bench", "_cmd_trace",
    # The simulator's memory-bandwidth roofline, and the constructor
    # parameters with one value in use.
    "MEMORY_BANDWIDTH", "bytes_touched", "_scan_bytes_per_element",
    "client_compute_rate", "start_method=",
    # The process pool's per-batch threshold board and shard-major table.
    "_SharedVector", "TASKS_PER_WORKER", "_scan_task", "_make_tasks",
    "begin_batch", "gather_part",
    # The simulator's own slice stepping, and the unused message records.
    "ScanKernel.step", "kernel.step(", "_next_block", "fixed_order",
    "state.remaining", "QueryChunk", "PartialResult", "ResultSet",
    # The unused remaining-slices cap and the executor's second name.
    "remaining_ip_bound", "_get_host_backend",
    # Metadata-filtered search and range search.
    "filter_labels", "allowed_mask", "labels_of", "range_search",
    "make_filter_key", "filter_key", "multitenant_filtering",
    # The load harness in the library (its driver lives beside its benches).
    "repro.serve.harness", "serve/harness.py",
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


def _retired_mentions(files, patterns) -> "list[str]":
    hits = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            if DECLARATION in line:
                continue
            for pattern in patterns:
                if pattern.search(line):
                    where = path.relative_to(ROOT)
                    hits.append(f"{where}:{lineno}: {pattern.pattern}")
    return hits


def test_retired_names_are_named_nowhere():
    """A retired symbol matches anywhere in a line; a retired config
    field only as a whole identifier, since a metric family may embed
    it (the ``harmony_serve_queue_depth`` gauge outlived its field)."""
    patterns = [re.compile(re.escape(name)) for name in RETIRED_SYMBOLS]
    patterns += [
        re.compile(rf"(?<!\w){name}(?!\w)") for name in _RETIRED_CONFIG_FIELDS
    ]
    assert _retired_mentions(_scanned_files(), patterns) == []


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


_SPAN = re.compile(r"`([^`\n]+)`")
_CLASS_ATTR = re.compile(r"^([A-Z]\w*)\.([A-Za-z_]\w*)(\*?)")


def _src_modules() -> "dict[str, Path]":
    """Dotted name → file for every module under ``src/repro``."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _repro_classes() -> "dict[str, list[type]]":
    """Class name → the classes of that name the ``repro`` modules define."""
    found: "dict[str, list[type]]" = {}
    for module_name, path in _src_modules().items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [n.name for n in tree.body if isinstance(n, ast.ClassDef)]
        if names:
            module = importlib.import_module(module_name)
            for name in names:
                found.setdefault(name, []).append(getattr(module, name))
    return found


def _members(cls: type) -> "set[str]":
    """What ``cls.attr`` may name: its attributes, fields and ``self.x``."""
    names = set(dir(cls))
    for klass in inspect.getmro(cls):
        if not klass.__module__.startswith("repro"):
            continue
        names |= set(vars(klass).get("__annotations__", {}))
        tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
        names |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        }
    return names


def _class_attr_mentions(text: str) -> "list[tuple[str, str]]":
    """``(Class, attr)`` for each backticked span opening with one.

    Wildcard families (``Name.prefix_*``) are skipped.
    """
    out = []
    for span in _SPAN.findall(text):
        match = _CLASS_ATTR.match(span)
        if match is not None and not match.group(3):
            out.append((match.group(1), match.group(2)))
    return out


def _class_attr_failures(mentions, classes) -> "list[str]":
    failures = []
    for where, name, attr in mentions:
        if name in classes and not any(
            attr in _members(cls) for cls in classes[name]
        ):
            failures.append(f"{where}: `{name}.{attr}`")
    return failures


def test_doc_class_attributes_resolve():
    mentions = []
    for path in DOCS:
        where = str(path.relative_to(ROOT))
        text = path.read_text(encoding="utf-8")
        mentions += [(where, *m) for m in _class_attr_mentions(text)]
    classes = _repro_classes()
    checked = [m for m in mentions if m[1] in classes]
    assert len(checked) > 40, "the extractor found too few names"
    assert _class_attr_failures(sorted(set(mentions)), classes) == []


# ----------------------------------------------------------------------
# (c) The reachability table.
# ----------------------------------------------------------------------

REACHABILITY = {
    "repro.baselines.auncel": ("paper", "Auncel comparison"),
    "repro.baselines.distributed_graph": ("paper", "graph-based segmentation"),
    "repro.cache.result_cache": ("ledger", "serve_zipf"),
    "repro.cli": ("cli", "run"),
    "repro.cluster.cluster": ("paper", "Platform"),
    "repro.cluster.host_faults": ("used-by", "repro.core.executor.process"),
    "repro.cluster.messages": ("used-by", "repro.core.cost_model"),
    "repro.cluster.network": ("paper", "Figure 2(b)"),
    "repro.cluster.node": ("paper", "Platform"),
    "repro.cluster.recovery": ("used-by", "repro.core.database"),
    "repro.cluster.stats": ("used-by", "repro.cluster.cluster"),
    "repro.core.capacity": ("cli", "capacity"),
    "repro.core.config": ("paper", "`-NMachine`"),
    "repro.core.cost_model": ("paper", "Table 1 notations"),
    "repro.core.database": ("ledger", "batch_fp32"),
    "repro.core.executor.base": ("ledger", "batch_fp32"),
    "repro.core.executor.kernel": ("paper", "Algorithm 1 `DimensionPipeline`"),
    "repro.core.executor.process": ("ledger", "batch_process"),
    "repro.core.executor.serial": ("used-by", "repro.validation"),
    "repro.core.heap": ("ledger", "batch_fp32"),
    "repro.core.layout": ("ledger", "mixed_rw"),
    "repro.core.partition": ("paper", "Vector-based vs dimension-based"),
    "repro.core.pipeline": ("paper", "Algorithm 1 `VectorPipeline`"),
    "repro.core.planner": ("ledger", "batch_fp32"),
    "repro.core.pruning": ("paper", "Early stopping from partial distances"),
    "repro.core.results": ("used-by", "repro.core.database"),
    "repro.core.routing": ("paper", "Query load distribution"),
    "repro.data.analysis": ("paper", "§6.3.3"),
    "repro.data.datasets": ("paper", "Table 2 datasets"),
    "repro.data.ground_truth": ("used-by", "repro.cli"),
    "repro.data.loaders": ("paper", "Table 2 datasets"),
    "repro.data.synthetic": ("used-by", "repro.data.datasets"),
    "repro.distance.kernels": ("paper", "MKL distance kernels"),
    "repro.distance.metrics": ("used-by", "repro.distance.kernels"),
    "repro.distance.partial": ("paper", "Dimension split"),
    "repro.index.faiss_like": ("paper", "Faiss baseline"),
    "repro.index.flat": ("used-by", "repro.data.ground_truth"),
    "repro.index.hnsw": ("paper", "Graph-based indexes"),
    "repro.index.ivf": ("paper", "Cluster-based (IVF) indexes"),
    "repro.index.kmeans": ("paper", "Cluster-based (IVF) indexes"),
    "repro.index.quantized": ("paper", "reducing storage costs"),
    "repro.obs.export": ("used-by", "repro.obs.trace"),
    "repro.obs.metrics": ("used-by", "repro.cli"),
    "repro.obs.trace": ("used-by", "repro.core.database"),
    "repro.obs.validate": (
        "api", ".github/workflows/ci.yml", "repro.obs.validate",
    ),
    "repro.serve.server": ("ledger", "serve_zipf"),
    "repro.util.blas": ("used-by", "repro.core.executor.process"),
    "repro.util.growable": ("used-by", "repro.index.ivf"),
    "repro.validation": ("paper", "monotone pruning"),
    "repro.workload.generators": ("paper", "Skewed-load bandwidth"),
    "repro.workload.skew": ("ledger", "serve_zipf"),
}

def _table_modules() -> "dict[str, Path]":
    """The modules that need a row: all but packages and ``__main__``."""
    return {
        name: path
        for name, path in _src_modules().items()
        if path.name != "__init__.py" and name != "repro.__main__"
    }


def _imports(path: Path) -> "set[str]":
    """Every absolute module name ``path`` imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
    return found


def _paper_rows() -> "list[tuple[str, str]]":
    """``(first cell, whole line)`` of every docs/paper_mapping.md row."""
    rows = []
    text = (ROOT / "docs" / "paper_mapping.md").read_text(encoding="utf-8")
    for line in text.splitlines():
        cells = line.strip().strip("|").split(" | ")
        if line.startswith("|") and len(cells) >= 2 and not set(cells[0]) <= {"-", "|"}:
            rows.append((cells[0].strip(), line))
    return rows


def _ledger_modules() -> "set[str]":
    """Modules the frozen ledger binds: span-target owners and imports."""
    ledger = ROOT / "benchmarks" / "ledger"
    spec = importlib.util.spec_from_file_location("ledger_spans", ledger / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses look their module up
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    found = {target.module for target in spans.TARGETS}
    for script in ledger.glob("*.py"):
        found |= {m for m in _imports(script) if m.startswith("repro")}
    return found


def _cli_commands() -> "set[str]":
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    return set(sub.choices)


def _row_failure(module: str, row: tuple, ctx: dict) -> "str | None":
    """Why ``row`` does not hold for ``module``; ``None`` when it does."""
    kind, cite = row[0], row[1]
    path = module.replace(".", "/") + ".py"
    if kind == "paper":
        hits = [line for first, line in ctx["paper_rows"] if cite in first]
        if len(hits) != 1:
            return f"{len(hits)} paper_mapping rows match {cite!r}"
        if path not in hits[0]:
            return f"the paper_mapping row {cite!r} does not name {path}"
    elif kind == "ledger":
        if cite not in ctx["workloads"]:
            return f"{cite!r} is not a BENCHMARK.json workload"
        if module not in ctx["ledger_modules"]:
            return "the ledger neither wraps nor imports it"
    elif kind == "cli":
        if cite not in ctx["commands"]:
            return f"`python -m repro {cite}` does not exist"
        if module != "repro.cli" and module not in _imports(ctx["files"]["repro.cli"]):
            return "repro/cli.py does not import it"
    elif kind == "api":
        caller, name = ROOT / cite, row[2]
        if module not in ctx["api_text"]:
            return "docs/api.md does not name it"
        if cite.split("/")[0] in ("tests", "examples", "benchmarks"):
            return f"{cite} is not a caller outside tests, examples and benches"
        if not caller.is_file():
            return f"{cite} is not a file"
        if name != module:
            try:
                _resolve(f"{module}.{name}")
            except AttributeError:
                return f"it defines no {name!r}"
        last = name.rsplit(".", 1)[-1] if name != module else re.escape(name)
        if not re.search(rf"\b{last}\b", caller.read_text(encoding="utf-8")):
            return f"{cite} does not use {name!r}"
    elif kind == "used-by":
        if cite not in ctx["table"]:
            return f"{cite} has no row of its own"
        if module not in _imports(ctx["files"][cite]):
            return f"{cite} does not import {module}"
    else:
        return f"unknown row kind {kind!r}"
    return None


def _context(table) -> dict:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "table": table,
        "files": _table_modules(),
        "paper_rows": _paper_rows(),
        "workloads": {w["name"] for w in benchmark["workloads"]},
        "ledger_modules": _ledger_modules(),
        "commands": _cli_commands(),
        "api_text": (ROOT / "docs" / "api.md").read_text(encoding="utf-8"),
    }


def _table_failures(table) -> "list[str]":
    modules = _table_modules()
    failures = [f"{m}: no row" for m in sorted(set(modules) - set(table))]
    failures += [f"{m}: no such module" for m in sorted(set(table) - set(modules))]
    ctx = _context(table)
    for module, row in sorted(table.items()):
        if module in modules:
            why = _row_failure(module, row, ctx)
            if why is not None:
                failures.append(f"{module}: {row[0]}: {why}")
    for module in sorted(table):
        seen = [module]
        while table.get(seen[-1], ("",))[0] == "used-by":
            nxt = table[seen[-1]][1]
            if nxt in seen:
                failures.append(f"{module}: used-by cycle {' -> '.join(seen + [nxt])}")
                break
            seen.append(nxt)
    return failures


def test_every_module_has_a_row_that_resolves():
    assert _table_failures(REACHABILITY) == []


def test_reachability_table_catches_orphans_and_stale_rows():
    broken = dict(REACHABILITY)
    del broken["repro.core.heap"]
    broken["repro.core.routing"] = ("paper", "No such paper element")
    broken["repro.util.growable"] = ("used-by", "repro.cli")
    broken["repro.core.capacity"] = ("cli", "trace")
    broken["repro.obs.validate"] = ("api", "tests/test_obs.py", "main")
    broken["repro.cluster.recovery"] = (
        "api", "benchmarks/bench_fault_recovery.py", "RecoveryManager.repair",
    )
    broken["repro.data.synthetic"] = ("ledger", "batch_fp32")
    broken["repro.index.flat"] = ("used-by", "repro.index.kmeans")
    broken["repro.index.kmeans"] = ("used-by", "repro.index.flat")
    failures = "\n".join(_table_failures(broken))
    for expected in (
        "repro.core.heap: no row",
        "repro.core.routing: paper: 0 paper_mapping rows",
        "repro.util.growable: used-by: repro.cli does not import",
        "repro.core.capacity: cli: `python -m repro trace` does not exist",
        "repro.obs.validate: api: tests/test_obs.py is not a caller",
        "repro.cluster.recovery: api: benchmarks/bench_fault_recovery.py "
        "is not a caller",
        "repro.data.synthetic: ledger: the ledger neither wraps nor imports",
        "repro.index.flat: used-by cycle",
    ):
        assert expected in failures


def test_class_attribute_check_catches_a_retired_method():
    classes = _repro_classes()
    text = "Use `RoutingCache.route_for` and `ExecutionReport.routing_cache_*`."
    assert _class_attr_mentions(text) == [("RoutingCache", "route_for")]
    good = [("api.md", "RoutingCache", "route_for"),
            ("api.md", "HarmonyDB", "config"),
            ("api.md", "SearchResult", "ids"),
            ("api.md", "README", "md")]
    assert _class_attr_failures(good, classes) == []
    bad = [("api.md", "RoutingCache", "shards_for")]
    assert _class_attr_failures(bad, classes) == ["api.md: `RoutingCache.shards_for`"]


def _without_a_caller(names) -> "list[str]":
    """The ``names`` no call in ``src/`` (``config.py`` aside) or
    ``benchmarks/`` passes as a keyword."""
    paths = [
        p for p in sorted(SRC.rglob("*.py"))
        if p != SRC / "repro" / "core" / "config.py"
    ]
    paths += sorted((ROOT / "benchmarks").rglob("*.py"))
    passed = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                passed.update(kw.arg for kw in node.keywords if kw.arg)
    return [name for name in names if name not in passed]


def test_every_config_field_has_a_caller():
    names = [f.name for f in dataclasses.fields(HarmonyConfig)]
    assert _without_a_caller(names) == []
    assert _without_a_caller(["nprobe", "never_passed_knob"]) == [
        "never_passed_knob"
    ]


def _public_defs(source: str) -> "list[tuple[str, str, int, int]]":
    """``(label, name, first line, last line)`` of each public function
    a module defines at top level or in a top-level class (decorators
    included in the span)."""
    found = []
    for node in ast.parse(source).body:
        scopes = [(None, node)]
        if isinstance(node, ast.ClassDef):
            scopes = [(node.name, member) for member in node.body]
        for owner, fn in scopes:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.startswith("_"):
                continue
            first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
            label = fn.name if owner is None else f"{owner}.{fn.name}"
            found.append((label, fn.name, first, fn.end_lineno))
    return found


def _uncalled_public_defs(defined, mentioned, api: str) -> "list[str]":
    """The public defs of ``defined`` (``{path: source}``) whose name no
    line of ``mentioned`` (``{path: source}``) holds outside the def's
    own lines, and that ``api`` does not name either."""
    where: "dict[str, list[tuple[object, int]]]" = {}
    for path, text in mentioned.items():
        for lineno, line in enumerate(text.splitlines(), 1):
            for word in set(re.findall(r"\w+", line)):
                where.setdefault(word, []).append((path, lineno))
    documented = set(re.findall(r"\w+", api))
    orphans = []
    for path, text in defined.items():
        for label, name, first, last in _public_defs(text):
            if name in documented:
                continue
            if not any(
                other != path or not first <= lineno <= last
                for other, lineno in where.get(name, ())
            ):
                orphans.append(label)
    return orphans


def test_every_public_def_has_a_caller():
    """A public function or method is called (or named) somewhere in
    ``src/``, ``benchmarks/`` or ``examples/`` — tests do not count —
    or is a documented entry point in ``docs/api.md``. One that only
    tests reach is deleted with its tests, not kept for them."""
    defined = {
        path: path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }
    mentioned = dict(defined)
    for top in ("benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            mentioned[path] = path.read_text(encoding="utf-8")
    api = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    assert _uncalled_public_defs(defined, mentioned, api) == []

    stray = {
        "stray.py": (
            "class Stray:\n"
            "    @property\n"
            "    def nobody_reads_this(self):\n"
            "        '''nobody_reads_this names itself only.'''\n"
            "    def _private(self):\n"
            "        pass\n"
            "\n"
            "def named_elsewhere():\n"
            "    pass\n"
        ),
        "caller.py": "named_elsewhere()\n",
    }
    assert _uncalled_public_defs(stray, stray, api) == [
        "Stray.nobody_reads_this"
    ]
