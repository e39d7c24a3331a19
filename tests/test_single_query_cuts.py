"""A single query's fixed costs, each pinned to the form it replaced.

- the probed lists gathered as row ranges, with the prewarmed head cut
  off the nearest list's range, against the one-``arange``-per-list
  gather that drops the prewarmed ids and tombstones by mask;
- the centroids' float64 terms derived once, against
  ``pairwise_squared_l2`` over the centroids on every call;
- the layout's byte count kept per change, against a fresh walk;
- an empty heap seeded in one step, against sequential pushes.
"""

import numpy as np
import pytest

from repro import HarmonyConfig, HarmonyDB
from repro.core import layout as layout_module
from repro.core.executor import ScanKernel
from repro.core.heap import TopKHeap
from repro.core.layout import _BASE_FAMILIES, _OVERLAY_FAMILIES, _named_arrays
from repro.core.partition import build_plan
from repro.distance.kernels import pairwise_squared_l2, widened_rows
from repro.distance.metrics import Metric
from repro.index.ivf import IVFFlatIndex

DIM, NLIST = 16, 8


def mask_gather(layout, shard, lists, exclude, codes=False):
    """``(ids, local, norms, err)`` as the gather read them before row
    ranges: one ``arange`` per probed list, then the excluded ids and
    the tombstones dropped by mask, base rows before delta rows."""
    lists = np.asarray(lists, dtype=np.int64)
    starts = layout._list_start[lists]
    stops = layout._list_stop[lists]
    base_ids = layout._ids[shard]
    local = np.concatenate(
        [np.arange(a, b, dtype=np.intp) for a, b in zip(starts, stops)]
        + [np.empty(0, dtype=np.intp)]
    )
    dlists = layout._dlists[shard].view
    sel = np.flatnonzero(np.isin(dlists, lists))
    ids = np.concatenate([base_ids[local], layout._dids[shard].view[sel]])
    keep = ~np.isin(ids, np.empty(0) if exclude is None else exclude)
    if layout.tombstones_since:
        keep &= ~layout._tombstone[ids]
    n_base = local.size
    base_keep, delta_keep = keep[:n_base], keep[n_base:]
    local, sel = local[base_keep], sel[delta_keep]

    def side_table(base, delta):
        if base is None:
            return None
        return np.concatenate([base[local], delta.view[sel]])

    return (
        ids[keep],
        np.concatenate([local, sel + base_ids.size]),
        side_table(layout._norms[shard], layout._dnorms[shard]),
        side_table(layout._code_err[shard], layout._dcode_err[shard])
        if codes else None,
    )


def assert_same_part(part, expected):
    ids, local, norms, err = expected
    np.testing.assert_array_equal(part.ids, ids)
    np.testing.assert_array_equal(part.local, local)
    if norms is None:
        assert part.norms is None
    else:
        np.testing.assert_array_equal(part.norms, norms)
    if err is not None:
        np.testing.assert_array_equal(part.err, err)


def make_kernel(metric=Metric.INNER_PRODUCT, n=400, prewarm_size=6, seed=0):
    rng = np.random.default_rng(seed)
    index = IVFFlatIndex(dim=DIM, nlist=NLIST, metric=metric, seed=0)
    base = rng.standard_normal((n, DIM)).astype(np.float32)
    index.train(base)
    index.add(base)
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    kernel = ScanKernel(
        index, plan, prewarm_size=prewarm_size, scan_precision="sq8",
        auto_compact=False,
    )
    kernel.packed_base()
    return kernel, rng


def nearest_head(kernel, list_id, n):
    layout = kernel.packed_base()
    shard = int(kernel.plan.shard_of_list[list_id])
    ids, _ = layout.list_head(shard, list_id, n)
    return shard, ids


def check_both_precisions(layout, shard, lists, exclude):
    assert_same_part(
        layout.gather(shard, lists, exclude),
        mask_gather(layout, shard, lists, exclude),
    )
    assert_same_part(
        layout.gather_sq8(shard, lists, exclude),
        mask_gather(layout, shard, lists, exclude, codes=True),
    )


def probed_in(kernel, shard, first):
    """Lists of ``shard`` with ``first`` leading, as a route orders them."""
    lists = [int(l) for l in kernel.plan.lists_of_shard(shard) if l != first]
    return np.array([first] + lists, dtype=np.int64)


@pytest.fixture
def not_among_calls(monkeypatch):
    calls = []
    real = layout_module._not_among

    def spy(ids, exclude):
        calls.append(exclude.size)
        return real(ids, exclude)

    monkeypatch.setattr(layout_module, "_not_among", spy)
    return calls


class TestRangeGatherEqualsMaskGather:
    @pytest.mark.parametrize("metric", [Metric.L2, Metric.INNER_PRODUCT])
    def test_head_cut_by_range_with_nothing_pending(self, metric, not_among_calls):
        kernel, _ = make_kernel(metric)
        layout = kernel.packed_base()
        for list_id in range(NLIST):
            shard, head = nearest_head(kernel, list_id, 6)
            check_both_precisions(
                layout, shard, probed_in(kernel, shard, list_id), head
            )
        # Every head was cut off by range: no candidate was masked.
        assert not_among_calls == []

    def test_a_pending_tombstone_inside_the_head(self, not_among_calls):
        kernel, _ = make_kernel()
        list_id = 0
        kernel.index.remove_ids(kernel.index.list_members(list_id)[[1, 4]])
        layout = kernel.packed_base()
        assert layout.tombstones_since
        shard, head = nearest_head(kernel, list_id, 6)
        check_both_precisions(
            layout, shard, probed_in(kernel, shard, list_id), head
        )
        assert not_among_calls   # the fallback mask dropped the head

    def test_a_pending_tombstone_outside_the_head(self):
        kernel, _ = make_kernel()
        list_id = 2
        members = kernel.index.list_members(list_id)
        kernel.index.remove_ids(members[[-1]])
        layout = kernel.packed_base()
        shard, head = nearest_head(kernel, list_id, 6)
        check_both_precisions(
            layout, shard, probed_in(kernel, shard, list_id), head
        )

    def test_delta_rows_in_the_nearest_list(self):
        kernel, rng = make_kernel()
        index = kernel.index
        index.add(rng.standard_normal((80, DIM)).astype(np.float32))
        layout = kernel.packed_base()
        assert layout.delta_rows
        for list_id in range(NLIST):
            shard, head = nearest_head(kernel, list_id, 6)
            lists = probed_in(kernel, shard, list_id)
            assert np.isin(layout._dlists[shard].view, lists).any()
            check_both_precisions(layout, shard, lists, head)

    @pytest.mark.parametrize("with_delta", [False, True])
    def test_nearest_list_shorter_than_prewarm_size(self, with_delta):
        kernel, rng = make_kernel(prewarm_size=400)
        if with_delta:
            kernel.index.add(rng.standard_normal((60, DIM)).astype(np.float32))
        layout = kernel.packed_base()
        for list_id in range(NLIST):
            shard, head = nearest_head(kernel, list_id, 400)
            lists = probed_in(kernel, shard, list_id)
            check_both_precisions(layout, shard, lists, head)
            # The whole list was prewarmed; what is left is the others'.
            assert not np.isin(layout.gather(shard, lists, head).ids, head).any()

    def test_nearest_list_in_another_shard(self):
        kernel, _ = make_kernel()
        layout = kernel.packed_base()
        list_id = int(kernel.plan.lists_of_shard(0)[0])
        _, head = nearest_head(kernel, list_id, 6)
        other = kernel.plan.lists_of_shard(1)
        check_both_precisions(layout, 1, other, head)

    @pytest.mark.parametrize("exclude", [None, np.empty(0, dtype=np.int64)])
    def test_prewarm_off(self, exclude):
        kernel, rng = make_kernel(prewarm_size=0)
        kernel.index.add(rng.standard_normal((30, DIM)).astype(np.float32))
        kernel.index.remove_ids(np.arange(0, 400, 7))
        layout = kernel.packed_base()
        for shard in range(2):
            check_both_precisions(
                layout, shard, kernel.plan.lists_of_shard(shard), exclude
            )

    @pytest.mark.parametrize("prewarm_size", [0, 6, 400])
    def test_every_shard_a_query_touches(self, prewarm_size):
        """The kernel excludes the prewarmed ids in the nearest list's
        shard only: every shard's part equals the mask gather of the
        prewarmed ids, over deltas and tombstones."""
        kernel, rng = make_kernel(prewarm_size=prewarm_size)
        kernel.index.add(rng.standard_normal((50, DIM)).astype(np.float32))
        kernel.index.remove_ids(np.arange(3, 400, 11))
        layout = kernel.packed_base()
        queries = kernel.prepare_queries(
            rng.standard_normal((12, DIM)).astype(np.float32)
        )
        probes = kernel.index.probe(queries, 5)
        for query, probe_row in zip(queries, probes):
            state = kernel.begin_query(0, query, probe_row, 10)
            for shard in kernel.shards_for(state):
                part = kernel._gather_candidates(state, int(shard))
                expected = mask_gather(
                    layout, int(shard), kernel._lists_for(state, int(shard)),
                    state.prewarmed, codes=True,
                )
                if part is None:
                    assert expected[0].size == 0
                else:
                    assert_same_part(part, expected)


class TestCentroidTerms:
    def test_probe_and_add_get_the_bits_of_pairwise_squared_l2(self):
        rng = np.random.default_rng(3)
        index = IVFFlatIndex(dim=DIM, nlist=NLIST, seed=0)
        index.train(rng.standard_normal((300, DIM)).astype(np.float32))
        rows = rng.standard_normal((40, DIM)).astype(np.float32)
        expected = pairwise_squared_l2(rows, index.centroids)
        np.testing.assert_array_equal(index._centroid_distances(rows), expected)
        for row, distances in zip(rows, expected):
            order = np.lexsort((np.arange(NLIST), distances))[:3]
            np.testing.assert_array_equal(index.probe(row, 3)[0], order)
        index.add(rows)
        np.testing.assert_array_equal(
            index.assignment_of(np.arange(40)), np.argmin(expected, axis=1)
        )

    def test_renewed_by_retrain_and_by_load(self, tmp_path):
        rng = np.random.default_rng(4)
        index = IVFFlatIndex(dim=DIM, nlist=NLIST, seed=0)
        index.train(rng.standard_normal((300, DIM)).astype(np.float32))
        first = index.centroids.copy()
        index.train(rng.standard_normal((300, DIM)).astype(np.float32) + 5.0)
        assert not np.array_equal(first, index.centroids)
        rows = rng.standard_normal((10, DIM)).astype(np.float32)

        def assert_current(ix):
            for held, fresh in zip(ix._centroid_terms, widened_rows(ix.centroids)):
                np.testing.assert_array_equal(held, fresh)
            np.testing.assert_array_equal(
                ix._centroid_distances(rows),
                pairwise_squared_l2(rows, ix.centroids),
            )

        assert_current(index)
        index.add(rows)
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = IVFFlatIndex.load(path)
        np.testing.assert_array_equal(loaded.centroids, index.centroids)
        assert_current(loaded)
        untrained = IVFFlatIndex(dim=DIM, nlist=NLIST)
        assert untrained._centroid_terms is None
        untrained.restore_state(index.state_arrays())
        assert_current(untrained)


def walked_bytes(layout):
    return sum(
        arr.nbytes
        for _, arr in _named_arrays(layout, _BASE_FAMILIES + _OVERLAY_FAMILIES)
    )


@pytest.mark.parametrize("precision", ["fp32", "sq8"])
def test_layout_bytes_equal_a_fresh_walk_after_every_change(precision):
    rng = np.random.default_rng(5)
    config = HarmonyConfig(
        nlist=NLIST, nprobe=4, n_machines=4, backend="serial",
        scan_precision=precision, auto_compact=False,
    )
    db = HarmonyDB(dim=DIM, config=config)
    db.build(rng.standard_normal((500, DIM)).astype(np.float32))
    query = rng.standard_normal((1, DIM)).astype(np.float32)
    seen = set()
    for step in ("build", "add", "remove", "search", "compact", "add"):
        if step == "add":
            db.add(rng.standard_normal((40, DIM)).astype(np.float32))
        elif step == "remove":
            db.remove(np.arange(0, 500, 9))
        elif step == "compact":
            db.compact()
        _, report = db.search(query, k=5)
        packed = db._executor().kernel._packed
        assert report.layout_bytes == walked_bytes(packed), step
        seen.add(report.layout_bytes)
    assert len(seen) >= 3   # the count moved with the layout
    db.close()


@pytest.mark.parametrize("n", [1, 5, 10, 11, 40])
@pytest.mark.parametrize("ties", [False, True])
def test_seeding_an_empty_heap_equals_sequential_pushes(n, ties):
    rng = np.random.default_rng(n + 100 * ties)
    scores = rng.standard_normal(n)
    if ties:
        scores = np.round(scores)   # many equal scores, ordered by id
    ids = rng.permutation(1000)[:n]
    seeded, pushed = TopKHeap(10), TopKHeap(10)
    retained = seeded.push_many(scores, ids)
    order = np.lexsort((ids, scores))[:10]
    expected = sum(pushed.push(s, i) for s, i in zip(scores[order], ids[order]))
    assert retained == expected == min(n, 10)
    assert seeded.items() == pushed.items()
    assert seeded.threshold == pushed.threshold
    looped = TopKHeap(10)
    for s, i in zip(scores, ids):
        looped.push(s, i)
    assert seeded.items() == looped.items()
    # ... and it goes on as the pushed heap does.
    more_scores, more_ids = rng.standard_normal(30), np.arange(2000, 2030)
    assert seeded.push_many(more_scores, more_ids) == pushed.push_many(
        more_scores, more_ids
    )
    assert seeded.items() == pushed.items()
    assert seeded.threshold == pushed.threshold
