"""Property matrix: result cache x mutation interleavings x backends.

Twin deployments — one with the result cache attached, one without —
replay identical add / remove / compact / search interleavings from
identical cloned indexes. Exact caching must be invisible: every
search (cold, warm, and straight after a mutation flush) returns ids
and distances byte-identical to the cache-off twin, on every backend
and scan precision.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import HarmonyConfig
from repro.core.database import HarmonyDB
from repro.index.ivf import IVFFlatIndex

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(1, 12)),
        st.tuples(st.just("remove"), st.integers(1, 8)),
        st.tuples(st.just("compact"), st.just(0)),
        st.tuples(st.just("search"), st.just(0)),
    ),
    min_size=2,
    max_size=6,
)


@pytest.fixture(scope="module")
def saved_index(tiny_data):
    """One trained index, serialized once; examples reload clones so
    each interleaving starts from identical, unshared state."""
    index = IVFFlatIndex(dim=32, nlist=16, seed=0)
    index.train(tiny_data)
    index.add(tiny_data)
    buf = io.BytesIO()
    index.save(buf)
    return buf.getvalue()


def _twin(saved_index, backend, precision, enable_cache):
    index = IVFFlatIndex.load(io.BytesIO(saved_index))
    config = HarmonyConfig(
        n_machines=4,
        nlist=16,
        nprobe=4,
        backend=backend,
        n_threads=2,
        scan_precision=precision,
        delta_compact_ratio=0.5,  # keep deltas live across steps
        enable_cache=enable_cache,
    )
    return HarmonyDB.from_trained_index(index, config=config)


def _replay(cached, plain, ops, seed, queries):
    """Drive both twins through one interleaving, asserting byte
    identity after every search (each query pool row searched twice so
    warm hits are exercised inside every step)."""
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    for op, arg in ops:
        if op == "add":
            rows_a = rng_a.standard_normal((arg, 32)).astype(np.float32)
            rows_b = rng_b.standard_normal((arg, 32)).astype(np.float32)
            cached.add(rows_a)
            plain.add(rows_b)
        elif op == "remove":
            alive = np.flatnonzero(~cached.index.deleted_mask)
            if alive.size:
                victims_a = rng_a.choice(
                    alive, size=min(arg, alive.size), replace=False
                )
                victims_b = rng_b.choice(
                    alive, size=min(arg, alive.size), replace=False
                )
                cached.remove(victims_a)
                plain.remove(victims_b)
        elif op == "compact":
            cached.compact()
            plain.compact()
        else:
            for _ in range(2):  # cold pass fills, warm pass hits
                got, _ = cached.search(queries, k=5)
                ref, _ = plain.search(queries, k=5)
                np.testing.assert_array_equal(got.ids, ref.ids)
                np.testing.assert_array_equal(got.distances, ref.distances)
                assert got.ids.tobytes() == ref.ids.tobytes()
                assert got.distances.tobytes() == ref.distances.tobytes()
    for _ in range(2):  # always end on a verified warm search
        got, _ = cached.search(queries, k=5)
        ref, _ = plain.search(queries, k=5)
        np.testing.assert_array_equal(got.ids, ref.ids)
        np.testing.assert_array_equal(got.distances, ref.distances)


@pytest.mark.parametrize("backend", ["serial", "thread", "sim"])
@pytest.mark.parametrize("precision", ["fp32", "sq8"])
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[
        HealthCheck.function_scoped_fixture, HealthCheck.too_slow
    ],
)
@given(ops=_OPS, seed=st.integers(0, 2**16))
def test_cached_interleavings_byte_identical(
    backend, precision, ops, seed, saved_index, tiny_queries
):
    """Exact caching never changes a single byte of any answer across
    arbitrary mutation interleavings, backends, and scan precisions."""
    cached = _twin(saved_index, backend, precision, enable_cache=True)
    plain = _twin(saved_index, backend, precision, enable_cache=False)
    try:
        _replay(cached, plain, ops, seed, tiny_queries)
    finally:
        cached.close()
        plain.close()


@pytest.mark.parametrize("precision", ["fp32", "sq8"])
def test_interleavings_process_backend(precision, saved_index, tiny_queries):
    """The process pool with the cache attached stays byte-identical
    through deltas, tombstones, and a mid-sequence compaction
    (deterministic — a persistent pool per hypothesis example would
    dominate the suite's runtime)."""
    cached = _twin(saved_index, "process", precision, enable_cache=True)
    plain = _twin(saved_index, "process", precision, enable_cache=False)
    rng = np.random.default_rng(9)
    try:
        for step in range(3):
            rows = rng.standard_normal((12, 32)).astype(np.float32)
            cached.add(rows)
            plain.add(rows)
            alive = np.flatnonzero(~cached.index.deleted_mask)
            victims = rng.choice(alive, size=4, replace=False)
            cached.remove(victims)
            plain.remove(victims)
            for _ in range(2):
                got, _ = cached.search(tiny_queries, k=5)
                ref, _ = plain.search(tiny_queries, k=5)
                np.testing.assert_array_equal(got.ids, ref.ids)
                np.testing.assert_array_equal(got.distances, ref.distances)
        cached.compact()
        plain.compact()
        for _ in range(2):
            got, report = cached.search(tiny_queries, k=5)
            ref, _ = plain.search(tiny_queries, k=5)
            np.testing.assert_array_equal(got.ids, ref.ids)
            np.testing.assert_array_equal(got.distances, ref.distances)
        assert report.result_cache_hits == tiny_queries.shape[0]
    finally:
        cached.close()
        plain.close()


def test_entry_never_crosses_layout_generation(saved_index, tiny_queries):
    """A live compaction moves the layout generation; entries from the
    old generation must flush rather than answer post-compaction
    queries (the staleness half of the cache contract)."""
    cached = _twin(saved_index, "thread", "fp32", enable_cache=True)
    try:
        cached.search(tiny_queries, k=5)  # build the packed layout
        # Small add (below the auto-compact ratio): the next search
        # absorbs it as delta rows and refills the cache at the
        # current layout generation.
        rng = np.random.default_rng(3)
        cached.add(rng.standard_normal((40, 32)).astype(np.float32))
        cached.search(tiny_queries, k=5)
        _, warm = cached.search(tiny_queries, k=5)
        assert warm.result_cache_hits == tiny_queries.shape[0]
        stats = cached.compact()
        assert stats["compacted"] is True
        result, post = cached.search(tiny_queries, k=5)
        assert post.result_cache_hits == 0
        _, ref_ids = cached.index.search(tiny_queries, k=5, nprobe=4)
        np.testing.assert_array_equal(result.ids, ref_ids)
    finally:
        cached.close()
