"""Shared fixtures: small deterministic datasets, indexes, deployments,
and a per-test guard against leaked shared memory and child processes."""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB
from repro.data.synthetic import gaussian_blobs
from repro.index.ivf import IVFFlatIndex


def _resources() -> "tuple[set[str], set[int]]":
    """Shared-memory segments and live child processes, by name / pid."""
    return (
        set(glob.glob("/dev/shm/psm_*")),
        {child.pid for child in multiprocessing.active_children()},
    )


@pytest.fixture(autouse=True)
def no_leaked_segment_or_process(request):
    """Fail the test that leaves a new ``/dev/shm/psm_*`` segment or a
    new child process behind.

    Every ``HarmonyDB`` and backend is a context manager, so a leak is a
    missing ``with`` / ``close()``. A leftover that only garbage
    collection still holds (an unreferenced backend's finalizer) is
    given that one chance: ``gc.collect()`` runs only when the first
    look finds something.
    """
    segments, children = _resources()
    yield
    for attempt in range(2):
        now_segments, now_children = _resources()
        leaked = sorted(now_segments - segments) + [
            f"child pid {pid}" for pid in sorted(now_children - children)
        ]
        if not leaked:
            return
        if attempt == 0:
            gc.collect()
    pytest.fail(f"{request.node.nodeid} leaked {leaked}", pytrace=False)


@pytest.fixture(scope="session")
def tiny_data() -> np.ndarray:
    """400 x 32 clustered vectors; cheap enough for every unit test."""
    return gaussian_blobs(400, 32, n_blobs=8, cluster_std=0.4, seed=11)


@pytest.fixture(scope="session")
def tiny_queries() -> np.ndarray:
    """20 x 32 queries from the same distribution as ``tiny_data``."""
    return gaussian_blobs(420, 32, n_blobs=8, cluster_std=0.4, seed=11)[400:]


@pytest.fixture(scope="session")
def trained_index(tiny_data: np.ndarray) -> IVFFlatIndex:
    """A trained + populated IVF index over ``tiny_data`` (nlist=16)."""
    index = IVFFlatIndex(dim=32, nlist=16, seed=0)
    index.train(tiny_data)
    index.add(tiny_data)
    return index


@pytest.fixture(scope="session")
def medium_data() -> np.ndarray:
    """1600 x 48 clustered vectors for integration-level tests."""
    return gaussian_blobs(1600, 48, n_blobs=12, cluster_std=0.45, seed=5)


@pytest.fixture(scope="session")
def medium_queries() -> np.ndarray:
    return gaussian_blobs(1640, 48, n_blobs=12, cluster_std=0.45, seed=5)[1600:]


def make_db(
    data: np.ndarray,
    queries: np.ndarray | None = None,
    mode: "Mode | str" = Mode.HARMONY,
    n_machines: int = 4,
    nlist: int = 16,
    nprobe: int = 4,
    **overrides: object,
) -> HarmonyDB:
    """Build a small HarmonyDB for tests (deterministic, seed 0).

    ``HARMONY_BACKEND`` (env) overrides the default backend for every
    test that doesn't pin one explicitly — CI uses it to re-run the
    tier-1 suite on the process pool (results are byte-identical, so
    the whole suite doubles as an equivalence check).
    """
    env_backend = os.environ.get("HARMONY_BACKEND")
    if env_backend and "backend" not in overrides:
        overrides["backend"] = env_backend
        if env_backend == "process" and "n_workers" not in overrides:
            overrides["n_workers"] = 2
    config = HarmonyConfig(
        n_machines=n_machines,
        nlist=nlist,
        nprobe=nprobe,
        mode=mode,  # type: ignore[arg-type]
        seed=0,
        **overrides,  # type: ignore[arg-type]
    )
    db = HarmonyDB(
        dim=data.shape[1], config=config, cluster=Cluster(n_workers=n_machines)
    )
    db.build(data, sample_queries=queries)
    return db


@pytest.fixture()
def db_factory():
    """Factory fixture exposing :func:`make_db` to tests."""
    return make_db
