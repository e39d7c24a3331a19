"""An id prewarm scored is never gathered again, on every backend.

Prewarm seeds each query's heap with ``scores_to_query`` — one
full-width float64 reduction — while the dimension pipeline accumulates
one reduction per slice; the two disagree in the last bits for most
rows. Answers stay byte-identical across backends only because no id
is scored both ways: every shard gather takes the query's prewarmed ids
as its ``exclude``. So in every answer an id carries exactly one of the
two bit patterns — the prewarm one if and only if it was prewarmed —
and appears once.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.core.config import HarmonyConfig
from repro.core.executor import kernel as kernel_module
from repro.core.executor import (
    ProcessBackend,
    ScanKernel,
    SerialBackend,
)
from repro.core.layout import SharedShardPackedBase
from repro.core.partition import build_plan
from repro.core.pipeline import PipelineEngine
from repro.core.pruning import ShardGroupScan
from repro.distance.kernels import scores_to_query
from repro.distance.metrics import Metric
from repro.index.ivf import IVFFlatIndex

DIM, N, NLIST, NPROBE, K, PREWARM = 128, 2000, 8, 3, 10, 64


def make_index(metric):
    rng = np.random.default_rng(0)
    base = rng.standard_normal((N, DIM)).astype(np.float32)
    index = IVFFlatIndex(dim=DIM, nlist=NLIST, metric=metric, seed=0)
    index.train(base)
    index.add(base)
    return index


def pipeline_scores(rows, query, slices, metric):
    """What the dimension pipeline accumulates: one float64 reduction
    per slice, added in canonical slice order."""
    total = np.zeros(rows.shape[0], dtype=np.float64)
    q64 = query.astype(np.float64)
    for j in range(slices.n_slices):
        cols = slice(*slices.slice_range(j))
        rows64 = rows[:, cols].astype(np.float64)
        if metric is Metric.L2:
            diff = rows64 - q64[cols]
            total += np.einsum("ij,ij->i", diff, diff)
        else:
            total += -np.einsum(
                "ij,ij->i", rows64, np.broadcast_to(q64[cols], rows64.shape)
            )
    return total


def test_the_two_scorings_differ_in_the_last_bits():
    """Why exclusion is the contract: on 2 000 x 128 gaussian rows most
    full-width prewarm scores are not the pipeline's four-slice sums."""
    index = make_index(Metric.L2)
    plan = build_plan(index, n_machines=4, n_vector_shards=1, n_dim_blocks=4)
    query = np.random.default_rng(1).standard_normal(DIM).astype(np.float32)
    prewarm = scores_to_query(index.base, query, Metric.L2)
    pipeline = pipeline_scores(index.base, query, plan.slices, Metric.L2)
    np.testing.assert_allclose(prewarm, pipeline, rtol=1e-12)
    assert np.count_nonzero(prewarm != pipeline) > N // 2


def sim_engine(index, plan):
    config = HarmonyConfig(
        n_machines=plan.n_machines,
        nlist=index.nlist,
        metric=index.metric,
        prewarm_size=PREWARM,
        enable_pipeline=False,
        enable_load_balance=False,
    )
    return PipelineEngine(index, plan, Cluster(plan.n_machines), config)


@pytest.mark.parametrize(
    "metric", [Metric.L2, Metric.INNER_PRODUCT, Metric.COSINE]
)
def test_every_backend_scores_a_prewarmed_id_once(metric):
    index = make_index(metric)
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    raw = np.random.default_rng(2).standard_normal((12, DIM)).astype(
        np.float32
    )
    kernel = ScanKernel(index, plan, prewarm_size=PREWARM)
    queries = kernel.prepare_queries(raw)
    probes = index.probe(queries, NPROBE)
    host = dict(plan=plan, prewarm_size=PREWARM)
    with ProcessBackend(index, n_workers=2, **host) as process:
        results = {
            "serial-batched": SerialBackend(index, **host).search(
                raw, k=K, nprobe=NPROBE
            ),
            "serial-looped": SerialBackend(
                index, batch_queries=False, **host
            ).search(raw, k=K, nprobe=NPROBE),
            "process": process.search(raw, k=K, nprobe=NPROBE),
            "sim": sim_engine(index, plan).run(raw, k=K, nprobe=NPROBE)[0],
        }
    differing = 0
    for i, query in enumerate(queries):
        prewarmed = kernel.begin_query(i, query, probes[i], K).prewarmed
        assert prewarmed.size > 0
        # Scored as prewarm scores them: one call over the prewarmed
        # rows (a BLAS product's bits may depend on the block's shape).
        prewarm = scores_to_query(index.base[prewarmed], query, metric)
        for name, result in results.items():
            ids = result.ids[i][result.ids[i] >= 0]
            assert np.unique(ids).size == ids.size, name
            rows = index.base[ids]
            from_prewarm = np.isin(ids, prewarmed)
            pipeline = pipeline_scores(rows, query, plan.slices, metric)
            expect = pipeline.copy()
            expect[from_prewarm] = [
                prewarm[prewarmed == id_][0] for id_ in ids[from_prewarm]
            ]
            got = result.distances[i][: ids.size]
            assert got.tobytes() == expect.tobytes(), (name, i)
            differing += int(np.count_nonzero(expect != pipeline))
    # Answers hold prewarmed ids whose two scorings differ, so the bits
    # above tell which way each was scored.
    assert differing > 0


@pytest.mark.parametrize(
    "metric", [Metric.L2, Metric.INNER_PRODUCT, Metric.COSINE]
)
def test_the_list_path_never_scores_a_prewarmed_id_again(
    metric, monkeypatch
):
    """24 queries probing 3 of 8 lists on one vector shard share each
    list nine ways, so their group is read list by list. Its first slice
    scores every row of a probed list at once; each member's prewarmed
    ids are masked out of its nearest list's block there, so none of
    them reaches the dense arrays slice 0 leaves — and the answers are
    the per-query loop's, bit for bit."""
    index = make_index(metric)
    plan = build_plan(index, n_machines=2, n_vector_shards=1, n_dim_blocks=2)
    kernel = ScanKernel(index, plan, prewarm_size=PREWARM)
    queries = kernel.prepare_queries(
        np.random.default_rng(3).standard_normal((24, DIM)).astype(
            np.float32
        )
    )
    probes = index.probe(queries, NPROBE)
    members, settled = [], []
    scan_chunk = kernel_module._scan_chunk
    settle = ShardGroupScan._settle_lists

    def chunk_spy(chunk, *args, **kwargs):
        members[:] = [state for state, *_ in chunk]
        return scan_chunk(chunk, *args, **kwargs)

    def settle_spy(scan):
        pruned = settle(scan)
        for j, state in enumerate(members):
            assert state.prewarmed.size > 0
            mine = scan.ids[scan.query_of == j]
            assert not np.isin(mine, state.prewarmed).any()
        settled.append(scan.ids.size)
        return pruned

    monkeypatch.setattr(kernel_module, "_scan_chunk", chunk_spy)
    monkeypatch.setattr(ShardGroupScan, "_settle_lists", settle_spy)
    heaps = kernel.search_batch(queries, probes, K)
    assert settled and settled[0] > 0
    for i, heap in enumerate(heaps):
        looped = kernel.search_one(i, queries[i], probes[i], K)
        assert heap.items() == looped.items()


# ----------------------------------------------------------------------
# Prewarm reads the packed layout: the head of the nearest list's gather
# ----------------------------------------------------------------------

STEPS = st.lists(
    st.sampled_from(["add", "remove", "compact"]), min_size=0, max_size=6
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    steps=STEPS,
    precision=st.sampled_from(["fp32", "sq8"]),
    size=st.sampled_from([5, 40, 400]),
    seed=st.integers(0, 2**16),
)
def test_layout_prewarm_is_the_index_head_bit_for_bit(
    steps, precision, size, seed
):
    """Over any add / remove / compact history, in either precision:
    the ids a query prewarms are ``index.list_members(l0)[:prewarm_size]``
    and their scores are those rows of ``index.base`` scored by
    ``scores_to_query``, bit for bit — on the caller's kernel and on a pool worker's, which
    reads the shared layout it attached. ``size`` 400 outruns every
    list, so the head reaches into the delta segment."""
    rng = np.random.default_rng(seed)
    dim, nlist = 16, 4
    index = IVFFlatIndex(dim=dim, nlist=nlist, metric=Metric.L2, seed=0)
    base = rng.standard_normal((240, dim)).astype(np.float32)
    index.train(base)
    index.add(base)
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    options = dict(prewarm_size=size, scan_precision=precision)
    kernel = ScanKernel(index, plan, auto_compact=False, **options)
    kernel.packed_base()  # the generation later steps refresh
    for step in steps:
        if step == "add":
            rows = rng.standard_normal((30, dim)).astype(np.float32)
            index.add(rows)
        elif step == "remove":
            index.remove_ids(rng.choice(index.ntotal, 25, replace=False))
        else:
            kernel.compact()
        kernel.packed_base()
    queries = kernel.prepare_queries(
        rng.standard_normal((6, dim)).astype(np.float32)
    )
    probes = index.probe(queries, 2)

    packed = kernel.packed_base()
    shared = SharedShardPackedBase.from_packed(packed)
    shared.sync_overlay()
    attached = SharedShardPackedBase.attach(shared.manifest())
    try:
        worker = ScanKernel.over_layout(attached, plan, Metric.L2, **options)
        for i, query in enumerate(queries):
            head = index.list_members(int(probes[i][0]))[:size]
            expect = scores_to_query(index.base[head], query, Metric.L2)
            order = np.lexsort((head, expect))[:K]
            for on in (kernel, worker):
                state = on.begin_query(i, query, probes[i], K)
                assert state.prewarmed.tobytes() == head.tobytes()
                scores, ids = state.heap.items_arrays()
                assert ids.tobytes() == head[order].tobytes()
                assert scores.tobytes() == expect[order].tobytes()
    finally:
        attached.close()
        shared.unlink()
