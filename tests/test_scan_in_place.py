"""The scan reads the packed layout where it lies.

Two properties of the slab-fed scan that the result-equivalence suites
cannot see:

- *no hidden copy*: between the layout and the distance kernel no
  candidate's full row is ever materialized — the largest block a
  search allocates is one stage's float64 scratch, ``n_candidates x
  width x 8`` bytes, half of the ``n_candidates x dim x 4`` row block a
  gather used to build on a 1x4 grid;
- *no shared scratch*: the stage buffers belong to one scan object, so
  shard-groups running concurrently on the thread backend cannot
  overwrite each other's staged rows.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.executor import ScanKernel, SerialBackend, ThreadBackend
from repro.core.partition import build_plan
from repro.index.ivf import IVFFlatIndex

DIM, N, NLIST, NPROBE, K = 512, 6000, 8, 4, 10


@pytest.fixture(scope="module")
def kernel():
    rng = np.random.default_rng(0)
    base = rng.standard_normal((N, DIM)).astype(np.float32)
    index = IVFFlatIndex(dim=DIM, nlist=NLIST, seed=0)
    index.train(base)
    index.add(base)
    plan = build_plan(index, n_machines=4, n_vector_shards=1, n_dim_blocks=4)
    kernel = ScanKernel(index, plan)
    kernel.packed_base()
    return kernel


def make_queries(kernel, nq, seed):
    rng = np.random.default_rng(seed)
    queries = kernel.prepare_queries(
        rng.standard_normal((nq, DIM)).astype(np.float32)
    )
    return queries, kernel.index.probe(queries, NPROBE)


def n_candidates(kernel, query, probe_row):
    state = kernel.begin_query(0, query, probe_row, K)
    return kernel.count_candidates(state, 0)


def peak_growth(fn):
    """Peak traced bytes above the level ``fn`` started at.

    No allocation inside ``fn`` can be larger than this, freed or not.
    """
    fn()  # lazy one-time allocations happen outside the measurement
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


@pytest.mark.parametrize("precision", ["fp32", "sq8"])
def test_search_one_never_allocates_a_candidate_row_block(kernel, precision):
    kernel = ScanKernel(kernel.index, kernel.plan, scan_precision=precision)
    kernel.packed_base()
    queries, probes = make_queries(kernel, 1, seed=1)
    n = n_candidates(kernel, queries[0], probes[0])
    assert n > 1000
    grown = peak_growth(
        lambda: kernel.search_one(0, queries[0], probes[0], K)
    )
    # Everything live at the peak together — stage buffers, index
    # arrays, bookkeeping — stays under one row block, so no single
    # allocation was one.
    assert grown < n * DIM * 4
    # The scratch really is the largest piece: a quarter-width float64
    # stage, half a row block.
    assert grown > n * (DIM // 4) * 8


def test_search_batch_never_allocates_a_members_row_block(kernel):
    queries, probes = make_queries(kernel, 2, seed=2)
    largest = max(
        n_candidates(kernel, queries[i], probes[i]) for i in range(2)
    )
    grown = peak_growth(lambda: kernel.search_batch(queries, probes, K))
    assert grown < largest * DIM * 4


def test_concurrent_shard_groups_do_not_share_scratch():
    """2x2 grid, 4 threads: two shard-groups score at once, repeatedly.
    A stage buffer shared between scans would let one group's take
    land in the other's staged rows; the answers would drift from the
    serial oracle's on some repeat."""
    rng = np.random.default_rng(3)
    base = rng.standard_normal((3000, 32)).astype(np.float32)
    index = IVFFlatIndex(dim=32, nlist=16, seed=0)
    index.train(base)
    index.add(base)
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    queries = rng.standard_normal((64, 32)).astype(np.float32)
    reference = SerialBackend(index, plan=plan).search(queries, k=K, nprobe=8)
    thread = ThreadBackend(index, plan=plan, n_threads=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over mid-stage, often
    try:
        for repeat in range(30):
            got = thread.search(queries, k=K, nprobe=8)
            assert got.ids.tobytes() == reference.ids.tobytes(), repeat
            assert (
                got.distances.tobytes() == reference.distances.tobytes()
            ), repeat
    finally:
        sys.setswitchinterval(interval)
        thread.close()
