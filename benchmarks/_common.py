"""Shared infrastructure for the benchmark suite.

Every benchmark regenerates one table or figure of the paper's
evaluation (Section 6) at a scaled-down dataset size; DESIGN.md maps
each module here to its experiment. Datasets and trained IVF indexes
are cached so the four engines (Faiss-like, Harmony, Harmony-vector,
Harmony-dimension) share one clustering, exactly as in Section 6.1.

All performance numbers are *simulated seconds* from the
discrete-event cluster model; see DESIGN.md "Scaling conventions".
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkModel
from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB
from repro.data.datasets import SMALL_DATASETS, load_dataset
from repro.data.ground_truth import exact_knn, recall_at_k
from repro.index.faiss_like import search_cost
from repro.index.ivf import IVFFlatIndex

RESULTS_DIR = Path(__file__).parent / "results"

#: Scaled (base size, query count) per dataset; paper sizes documented
#: in repro.data.datasets. Chosen so the whole suite runs in minutes.
DATASET_SCALE: dict[str, tuple[int, int]] = {
    "starlightcurves": (3000, 40),
    "msong": (4000, 40),
    "sift1m": (6000, 60),
    "deep1m": (5000, 40),
    "word2vec": (4000, 40),
    "handoutlines": (1500, 30),
    "glove1.2m": (5000, 40),
    "glove2.2m": (6000, 40),
    "spacev1b": (12000, 60),
    "sift1b": (12000, 60),
}

NLIST = 64
NPROBE = 8
K = 10
SEED = 7


@functools.lru_cache(maxsize=None)
def get_dataset(name: str):
    size, n_queries = DATASET_SCALE[name]
    return load_dataset(name, size=size, n_queries=n_queries, seed=SEED)


@functools.lru_cache(maxsize=None)
def get_index(name: str) -> IVFFlatIndex:
    """One shared trained+populated IVF index per dataset."""
    dataset = get_dataset(name)
    index = IVFFlatIndex(dim=dataset.dim, nlist=NLIST, seed=0)
    index.train(dataset.base)
    index.add(dataset.base)
    return index


@functools.lru_cache(maxsize=None)
def get_ground_truth(name: str) -> np.ndarray:
    dataset = get_dataset(name)
    _, ids = exact_knn(dataset.base, dataset.queries, k=K)
    return ids


def deploy(
    name: str,
    mode: "Mode | str",
    n_machines: int = 4,
    network: NetworkModel | None = None,
    sample_queries: np.ndarray | None = None,
    nprobe: int = NPROBE,
    **overrides: object,
) -> HarmonyDB:
    """Attach the shared index to a fresh deployment in ``mode``."""
    dataset = get_dataset(name)
    config = HarmonyConfig(
        n_machines=n_machines,
        nlist=NLIST,
        nprobe=nprobe,
        mode=mode,  # type: ignore[arg-type]
        seed=0,
        **overrides,  # type: ignore[arg-type]
    )
    cluster = Cluster(n_workers=n_machines, network=network)
    sample = sample_queries if sample_queries is not None else dataset.queries
    db = HarmonyDB.from_trained_index(
        get_index(name),
        config=config,
        cluster=cluster,
        sample_queries=sample,
        k=K,
    )
    if TRACE_DIR is not None:
        _traced_deployments.append((f"{name}-{config.mode.value}", db))
        db.enable_tracing()
    return db


#: Opt-in trace capture: set HARMONY_TRACE_DIR=<dir> and every figure
#: script's deployments record spans; each deployment's most recent
#: batch is dumped as Chrome trace JSON at interpreter exit. Tracing
#: is pure observation, so captured runs produce identical tables.
TRACE_DIR = os.environ.get("HARMONY_TRACE_DIR") or None

_traced_deployments: list[tuple[str, HarmonyDB]] = []


def _dump_traces() -> None:
    out = Path(TRACE_DIR)
    out.mkdir(parents=True, exist_ok=True)
    for i, (label, db) in enumerate(_traced_deployments):
        if db.tracer is None or not len(db.tracer.spans()):
            continue
        db.tracer.trace().save_chrome(out / f"{i:03d}-{label}.json")


if TRACE_DIR is not None:
    import atexit

    atexit.register(_dump_traces)


def faiss_run(
    name: str, queries: np.ndarray | None = None, nprobe: int = NPROBE
) -> tuple[np.ndarray, float]:
    """Single-node baseline on the shared index.

    Returns (result ids, simulated seconds). Scan work is priced at the
    derated worker rate, centroid ranking at the physical rate — the
    same convention as the Harmony client (see repro.cluster.node).
    """
    dataset = get_dataset(name)
    queries = queries if queries is not None else dataset.queries
    index = get_index(name)
    seconds = search_cost(index, queries, nprobe).simulated_seconds()
    _, ids = index.search(queries, k=K, nprobe=nprobe)
    return ids, seconds


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned ASCII table.

    Args:
        headers: column names.
        rows: row value sequences (same length as headers).
        title: optional caption printed above the table.
    """
    str_rows = [[_cell(v) for v in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in str_rows)) if str_rows else len(headers[c])
        for c in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str, xs: Sequence[object], ys: Sequence[object]
) -> str:
    """Render an (x, y) series as ``name: (x1, y1) (x2, y2) ...``."""
    if len(xs) != len(ys):
        raise ValueError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    pairs = " ".join(f"({_cell(x)}, {_cell(y)})" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def save_result(filename: str, text: str) -> str:
    """Persist a formatted benchmark table/series for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / filename).write_text(text + "\n")
    return text


def hot_lists_for(
    name: str, vector_db: HarmonyDB, nprobe: int = NPROBE
) -> np.ndarray:
    """Adversarial hot set: lists of the naturally hottest vector shard.

    Reproduces the paper's manipulated query sets (Section 6.2.2) by
    targeting the machine of the *deployed* vector plan that already
    carries the most probe mass, so injected skew compounds instead of
    accidentally rebalancing.
    """
    from repro.workload.skew import cluster_histogram

    dataset = get_dataset(name)
    index = get_index(name)
    plan = vector_db.plan
    sizes = index.list_sizes().astype(float)
    hist = cluster_histogram(index, dataset.queries, nprobe=nprobe)
    mass = sizes * hist
    shard_mass = [
        mass[plan.lists_of_shard(s)].sum()
        for s in range(plan.n_vector_shards)
    ]
    return plan.lists_of_shard(int(np.argmax(shard_mass)))


__all__ = [
    "DATASET_SCALE",
    "K",
    "NLIST",
    "NPROBE",
    "SEED",
    "SMALL_DATASETS",
    "Cluster",
    "HarmonyConfig",
    "HarmonyDB",
    "Mode",
    "NetworkModel",
    "deploy",
    "faiss_run",
    "format_series",
    "format_table",
    "get_dataset",
    "get_ground_truth",
    "get_index",
    "hot_lists_for",
    "recall_at_k",
    "save_result",
]
