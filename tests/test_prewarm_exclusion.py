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

from repro.cluster.cluster import Cluster
from repro.core.config import HarmonyConfig
from repro.core.executor import (
    ProcessBackend,
    ScanKernel,
    SerialBackend,
    ThreadBackend,
)
from repro.core.partition import build_plan
from repro.core.pipeline import PipelineEngine
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
            "thread": ThreadBackend(index, n_threads=4, **host).search(
                raw, k=K, nprobe=NPROBE
            ),
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
