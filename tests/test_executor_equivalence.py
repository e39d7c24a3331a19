"""Cross-backend exactness: serial == thread == process == simulated.

The executor refactor's contract: every backend runs the one shared
``ScanKernel``, so ids and distances are byte-identical across
execution substrates — for every metric, filter, prewarm size, and
after arbitrary add/remove mutation sequences.

The simulated engine is compared in two configurations: with canonical
slice ordering (pipeline/load-balance ablations off) its float
accumulation order matches the serial loop exactly, so even distances
must be bitwise equal; with the default adaptive ordering the per-slice
partial sums are added in a different order, so ids must still match
exactly while distances may differ only by float associativity.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.core.config import HarmonyConfig
from repro.core.executor import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.core.partition import build_plan
from repro.core.pipeline import PipelineEngine
from repro.distance.metrics import Metric
from repro.index.ivf import IVFFlatIndex

METRICS = [Metric.L2, Metric.INNER_PRODUCT, Metric.COSINE]
N_LABELS = 4


def make_index(metric, n=400, dim=24, nlist=16, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, dim)).astype(np.float32)
    index = IVFFlatIndex(dim=dim, nlist=nlist, metric=metric, seed=0)
    index.train(base)
    index.add(base, labels=rng.integers(0, N_LABELS, n))
    return index


def make_queries(dim, nq=12, seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((nq, dim)).astype(np.float32)


def sim_backend(
    index, plan, prewarm_size, canonical_order, scan_precision="fp32"
):
    config = HarmonyConfig(
        n_machines=plan.n_machines,
        nlist=index.nlist,
        metric=index.metric,
        prewarm_size=prewarm_size,
        enable_pipeline=not canonical_order,
        enable_load_balance=not canonical_order,
        scan_precision=scan_precision,
    )
    return PipelineEngine(index, plan, Cluster(plan.n_machines), config)


def assert_equivalent(results, ids_ref, dist_ref, bitwise):
    for name, result in results.items():
        np.testing.assert_array_equal(
            result.ids, ids_ref, err_msg=f"ids diverge in {name}"
        )
        if bitwise.get(name, True):
            np.testing.assert_array_equal(
                result.distances, dist_ref,
                err_msg=f"distances diverge in {name}",
            )
        else:
            np.testing.assert_allclose(
                result.distances, dist_ref, rtol=1e-9, atol=1e-12,
                err_msg=f"distances diverge in {name}",
            )


@pytest.mark.parametrize("precision", ["fp32", "sq8"])
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("prewarm", [0, 32])
@pytest.mark.parametrize("filtered", [False, True])
def test_three_backends_identical(metric, prewarm, filtered, precision):
    """All backends == the serial fp32 oracle, under either precision.

    The sq8 rows are the dual-representation contract: quantized
    candidate generation with exact fp32 re-ranking must stay
    *byte-identical* to the full-precision serial scan on every
    backend.
    """
    index = make_index(metric)
    queries = make_queries(index.dim)
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    filter_labels = [0, 2] if filtered else None

    # The oracle is ALWAYS the serial fp32 scan, even on sq8 rows.
    oracle = SerialBackend(index, plan=plan, prewarm_size=prewarm)
    serial = SerialBackend(
        index, plan=plan, prewarm_size=prewarm, scan_precision=precision
    )
    thread = ThreadBackend(
        index, plan=plan, n_threads=4, prewarm_size=prewarm,
        scan_precision=precision,
    )
    sim_canonical = sim_backend(
        index, plan, prewarm, canonical_order=True, scan_precision=precision
    )
    sim_default = sim_backend(
        index, plan, prewarm, canonical_order=False, scan_precision=precision
    )

    kwargs = dict(k=5, nprobe=4, filter_labels=filter_labels)
    reference = oracle.search(queries, **kwargs)
    with ProcessBackend(
        index, plan=plan, n_workers=2, prewarm_size=prewarm,
        scan_precision=precision,
    ) as process:
        results = {
            "serial": serial.search(queries, **kwargs),
            "thread": thread.search(queries, **kwargs),
            "process": process.search(queries, **kwargs),
            "sim-canonical": sim_canonical.run(queries, **kwargs)[0],
            "sim-default": sim_default.run(queries, **kwargs)[0],
        }
        assert not process.fallback_active
    assert_equivalent(
        results,
        reference.ids,
        reference.distances,
        bitwise={
            "serial": True,
            "thread": True,
            "process": True,
            "sim-canonical": True,
            "sim-default": False,
        },
    )


@pytest.mark.parametrize("precision", ["fp32", "sq8"])
@pytest.mark.parametrize("metric", METRICS)
def test_backends_identical_after_mutations(metric, precision):
    index = make_index(metric, n=300)
    rng = np.random.default_rng(5)
    queries = make_queries(index.dim, nq=8, seed=3)
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)

    # Interleave grows and tombstoned deletes, validating after each.
    # One persistent process pool spans every step, so its shared
    # layout — on sq8 including the code segments and their
    # quantization parameters — must invalidate and rebuild on each
    # version bump.
    with ProcessBackend(
        index, plan=plan, n_workers=2, scan_precision=precision
    ) as process:
        for step in range(3):
            extra = rng.standard_normal((40, index.dim)).astype(np.float32)
            index.add(extra, labels=rng.integers(0, N_LABELS, 40))
            alive = np.flatnonzero(~index._deleted)
            index.remove_ids(rng.choice(alive, size=15, replace=False))

            oracle = SerialBackend(index, plan=plan)
            thread = ThreadBackend(
                index, plan=plan, n_threads=4, scan_precision=precision
            )
            sim = sim_backend(
                index, plan, prewarm_size=32, canonical_order=True,
                scan_precision=precision,
            )
            reference = oracle.search(queries, k=5, nprobe=4)
            results = {
                "thread": thread.search(queries, k=5, nprobe=4),
                "process": process.search(queries, k=5, nprobe=4),
                "sim-canonical": sim.run(queries, k=5, nprobe=4)[0],
            }
            assert_equivalent(
                results, reference.ids, reference.distances, bitwise={}
            )
        assert not process.fallback_active


def test_serial_backend_matches_single_node_scan():
    """Anchor the oracle itself: SerialBackend == IVFFlatIndex.search."""
    for metric in METRICS:
        index = make_index(metric)
        queries = make_queries(index.dim)
        serial = SerialBackend(
            index,
            plan=build_plan(index, 4, 2, 2),
        )
        result = serial.search(queries, k=5, nprobe=4)
        ref_dist, ref_ids = index.search(queries, k=5, nprobe=4)
        np.testing.assert_array_equal(result.ids, ref_ids)
        np.testing.assert_allclose(
            result.distances, ref_dist, rtol=1e-9, atol=1e-12
        )


def test_resolve_backend_names():
    assert resolve_backend("serial") is SerialBackend
    assert resolve_backend("THREAD") is ThreadBackend
    assert resolve_backend("sim") is PipelineEngine
    assert resolve_backend("process") is ProcessBackend
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("mpi")


@pytest.mark.parametrize("precision", ["fp32", "sq8"])
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("prewarm", [0, 32])
@pytest.mark.parametrize("filtered", [False, True])
def test_batched_search_matches_per_query_loop(
    metric, prewarm, filtered, precision
):
    """search_batch == looping search_one, bitwise, on both host backends.

    The looped reference stays the fp32 serial loop, so the sq8 rows
    additionally pin batched quantized scans to the full-precision
    oracle.
    """
    index = make_index(metric)
    queries = make_queries(index.dim, nq=16)
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    kwargs = dict(
        k=5, nprobe=4, filter_labels=[0, 2] if filtered else None
    )

    looped = SerialBackend(
        index, plan=plan, prewarm_size=prewarm, batch_queries=False
    ).search(queries, **kwargs)
    with ProcessBackend(
        index, plan=plan, n_workers=2, prewarm_size=prewarm,
        batch_queries=True, scan_precision=precision,
    ) as process:
        results = {
            "looped-serial": SerialBackend(
                index, plan=plan, prewarm_size=prewarm, batch_queries=False,
                scan_precision=precision,
            ).search(queries, **kwargs),
            "batched-serial": SerialBackend(
                index, plan=plan, prewarm_size=prewarm, batch_queries=True,
                scan_precision=precision,
            ).search(queries, **kwargs),
            "batched-thread": ThreadBackend(
                index, plan=plan, n_threads=4, prewarm_size=prewarm,
                batch_queries=True, scan_precision=precision,
            ).search(queries, **kwargs),
            "batched-process": process.search(queries, **kwargs),
        }
    assert_equivalent(results, looped.ids, looped.distances, bitwise={})


@pytest.mark.parametrize("precision", ["fp32", "sq8"])
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("batch_queries", [True, False])
def test_process_degraded_mode_parity(metric, batch_queries, precision):
    """Skipped shards and coverage accounting match the serial oracle.

    Degraded mode (shards with no live replica) must produce the same
    partial results AND the same per-query ``[scanned, total]``
    coverage ledger whether the scan ran in-process or across the
    worker pool — under either scan precision (the reference is the
    fp32 serial loop in both cases).
    """
    index = make_index(metric)
    queries = make_queries(index.dim)
    plan = build_plan(index, n_machines=4, n_vector_shards=4, n_dim_blocks=1)
    skip = {1, 3}

    cov_serial = np.zeros((queries.shape[0], 2), dtype=np.int64)
    reference = SerialBackend(
        index, plan=plan, batch_queries=batch_queries
    ).search(queries, k=5, nprobe=4, skip_shards=skip, coverage=cov_serial)

    cov_sq8 = np.zeros((queries.shape[0], 2), dtype=np.int64)
    local = SerialBackend(
        index, plan=plan, batch_queries=batch_queries,
        scan_precision=precision,
    ).search(queries, k=5, nprobe=4, skip_shards=skip, coverage=cov_sq8)
    np.testing.assert_array_equal(local.ids, reference.ids)
    np.testing.assert_array_equal(local.distances, reference.distances)
    np.testing.assert_array_equal(cov_sq8, cov_serial)

    cov_process = np.zeros((queries.shape[0], 2), dtype=np.int64)
    with ProcessBackend(
        index, plan=plan, n_workers=2, batch_queries=batch_queries,
        scan_precision=precision,
    ) as process:
        result = process.search(
            queries, k=5, nprobe=4, skip_shards=skip, coverage=cov_process
        )
        assert not process.fallback_active
    np.testing.assert_array_equal(result.ids, reference.ids)
    np.testing.assert_array_equal(result.distances, reference.distances)
    np.testing.assert_array_equal(cov_process, cov_serial)
    assert (cov_serial[:, 1] >= cov_serial[:, 0]).all()


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    metric=st.sampled_from(METRICS),
    n_vector_shards=st.integers(1, 2),
    n_dim_blocks=st.integers(1, 3),
    prewarm=st.sampled_from([0, 8, 32]),
    nprobe=st.integers(1, 8),
    k=st.integers(1, 12),
    filtered=st.booleans(),
    mutate=st.booleans(),
)
def test_property_batched_equals_looped(
    seed,
    metric,
    n_vector_shards,
    n_dim_blocks,
    prewarm,
    nprobe,
    k,
    filtered,
    mutate,
):
    """For ANY small deployment — including after streaming mutations
    that invalidate the packed layout — the fused batched path is
    byte-identical to the per-query loop."""
    index = make_index(metric, n=150, dim=9, nlist=8, seed=seed)
    rng = np.random.default_rng(seed + 2)
    if mutate:
        extra = rng.standard_normal((25, index.dim)).astype(np.float32)
        index.add(extra, labels=rng.integers(0, N_LABELS, 25))
        alive = np.flatnonzero(~index._deleted)
        index.remove_ids(rng.choice(alive, size=10, replace=False))
    queries = make_queries(index.dim, nq=6, seed=seed + 1)
    plan = build_plan(
        index,
        n_machines=n_vector_shards * n_dim_blocks,
        n_vector_shards=n_vector_shards,
        n_dim_blocks=n_dim_blocks,
    )
    kwargs = dict(
        k=k, nprobe=nprobe, filter_labels=[1, 3] if filtered else None
    )

    looped = SerialBackend(
        index, plan=plan, prewarm_size=prewarm, batch_queries=False
    ).search(queries, **kwargs)
    with ProcessBackend(
        index, plan=plan, n_workers=2, prewarm_size=prewarm,
        batch_queries=True,
    ) as process:
        results = {
            "batched-serial": SerialBackend(
                index, plan=plan, prewarm_size=prewarm, batch_queries=True
            ).search(queries, **kwargs),
            "batched-thread": ThreadBackend(
                index, plan=plan, n_threads=2, prewarm_size=prewarm,
                batch_queries=True,
            ).search(queries, **kwargs),
            "batched-process": process.search(queries, **kwargs),
        }
    assert_equivalent(results, looped.ids, looped.distances, bitwise={})


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    metric=st.sampled_from(METRICS),
    n_vector_shards=st.integers(1, 2),
    n_dim_blocks=st.integers(1, 3),
    prewarm=st.sampled_from([0, 8, 32]),
    nprobe=st.integers(1, 8),
    k=st.integers(1, 12),
    filtered=st.booleans(),
    precision=st.sampled_from(["fp32", "sq8"]),
)
def test_property_backend_equivalence(
    seed, metric, n_vector_shards, n_dim_blocks, prewarm, nprobe, k,
    filtered, precision,
):
    """For ANY small deployment, all backends agree byte-for-byte with
    the fp32 serial oracle — under either scan precision."""
    index = make_index(metric, n=150, dim=9, nlist=8, seed=seed)
    queries = make_queries(index.dim, nq=6, seed=seed + 1)
    plan = build_plan(
        index,
        n_machines=n_vector_shards * n_dim_blocks,
        n_vector_shards=n_vector_shards,
        n_dim_blocks=n_dim_blocks,
    )
    filter_labels = [1, 3] if filtered else None
    kwargs = dict(k=k, nprobe=nprobe, filter_labels=filter_labels)

    oracle = SerialBackend(index, plan=plan, prewarm_size=prewarm)
    serial = SerialBackend(
        index, plan=plan, prewarm_size=prewarm, scan_precision=precision
    )
    thread = ThreadBackend(
        index, plan=plan, n_threads=2, prewarm_size=prewarm,
        scan_precision=precision,
    )
    sim = sim_backend(
        index, plan, prewarm, canonical_order=True, scan_precision=precision
    )

    reference = oracle.search(queries, **kwargs)
    with ProcessBackend(
        index, plan=plan, n_workers=2, prewarm_size=prewarm,
        scan_precision=precision,
    ) as process:
        results = {
            "serial": serial.search(queries, **kwargs),
            "thread": thread.search(queries, **kwargs),
            "process": process.search(queries, **kwargs),
            "sim-canonical": sim.run(queries, **kwargs)[0],
        }
    assert_equivalent(results, reference.ids, reference.distances, bitwise={})
