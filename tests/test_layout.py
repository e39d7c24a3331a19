"""Unit tests for repro.core.layout (ShardPackedBase + kernel caching)."""

import dataclasses
import re

import numpy as np
import pytest

from repro.core.executor import ScanKernel
from repro.core.layout import (
    ShardPackedBase,
    sq8_decode,
    sq8_encode,
    sq8_slice_errors,
    sq8_train_params,
)
from repro.core.partition import build_plan
from repro.core.routing import shard_candidate_lists
from repro.distance.metrics import Metric
from repro.distance.partial import slice_norms
from repro.index.ivf import IVFFlatIndex
from repro.util.growable import GrowableArray

N, DIM, NLIST = 300, 12, 8


def make_index(metric=Metric.L2, n=N, seed=0, dim=DIM):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, dim)).astype(np.float32)
    index = IVFFlatIndex(dim=dim, nlist=NLIST, metric=metric, seed=0)
    index.train(base)
    index.add(base)
    return index


def _arrays_under(held):
    """Every array under one attribute: nested lists, growth buffers."""
    if isinstance(held, GrowableArray):
        return [held.view]
    if isinstance(held, np.ndarray):
        return [held]
    if isinstance(held, list):
        return [arr for item in held for arr in _arrays_under(item)]
    return []


def _held_arrays(layout):
    """``{attribute: [arrays]}`` of whatever the layout holds — read off
    the object, not off the family tables, so it can check them."""
    found = {attr: _arrays_under(held) for attr, held in vars(layout).items()}
    return {attr: arrays for attr, arrays in found.items() if arrays}


def rows_of(part):
    """A gathered part's full rows, re-assembled from the slabs."""
    return part.slabs.rows(part.local)


def make_plan(index, n_vector_shards=2, n_dim_blocks=2):
    return build_plan(
        index,
        n_machines=n_vector_shards * n_dim_blocks,
        n_vector_shards=n_vector_shards,
        n_dim_blocks=n_dim_blocks,
    )


class TestBuildAndGather:
    def test_packed_rows_match_base(self):
        index = make_index()
        plan = make_plan(index)
        packed = ShardPackedBase.build(index, plan)
        assert packed.n_shards == 2
        total = sum(
            packed.gather(s, plan.lists_of_shard(s)).ids.size
            for s in range(packed.n_shards)
        )
        assert total == index.ntotal
        assert packed.nbytes > 0
        for shard in range(plan.n_vector_shards):
            lists = plan.lists_of_shard(shard)
            part = packed.gather(shard, lists)
            ids = part.ids
            assert part.norms is None
            assert part.err is None and part.exact is None
            rows = rows_of(part)
            assert rows.dtype == np.float32 and rows.shape == (ids.size, DIM)
            np.testing.assert_array_equal(rows, index.base[ids])
            # Same candidate *set* as the unpacked gather.
            np.testing.assert_array_equal(
                np.sort(ids), np.sort(index.candidates(lists))
            )

    def test_gather_subset_of_lists(self):
        index = make_index()
        plan = make_plan(index)
        packed = ShardPackedBase.build(index, plan)
        lists = plan.lists_of_shard(0)[:1]
        part = packed.gather(0, lists)
        ids = part.ids
        np.testing.assert_array_equal(
            np.sort(ids), np.sort(index.list_members(int(lists[0])))
        )
        np.testing.assert_array_equal(rows_of(part), index.base[ids])

    def test_gather_empty_lists(self):
        index = make_index()
        plan = make_plan(index)
        packed = ShardPackedBase.build(index, plan)
        part = packed.gather(0, np.empty(0, dtype=np.int64))
        assert part.ids.size == 0 and part.local.size == 0
        assert rows_of(part).shape == (0, DIM)
        assert part.norms is None

    def test_gather_tombstones_and_excluded_ids(self):
        index = make_index()
        plan = make_plan(index)
        packed = ShardPackedBase.build(index, plan)
        lists = plan.lists_of_shard(0)
        all_ids, *_ = packed.gather(0, lists)
        index.remove_ids(all_ids[1::2])
        assert packed.refresh(index)
        exclude = all_ids[:4]
        part = packed.gather(0, lists, exclude=exclude)
        expected = [i for i in all_ids[::2] if i not in set(exclude)]
        np.testing.assert_array_equal(part.ids, expected)
        np.testing.assert_array_equal(rows_of(part), index.base[part.ids])

    def test_excluded_ids_keep_order_and_ignore_aliases(self):
        """Exclusion drops exactly the named ids — not ids that merely
        share their low bits — and keeps the candidate order."""
        from repro.core.layout import _EXCLUDE_SLOTS, _not_among

        ids = np.arange(0, 5 * _EXCLUDE_SLOTS, 7, dtype=np.int64)
        exclude = ids[[3, 50, 51, 400]]
        keep = _not_among(ids, exclude)
        np.testing.assert_array_equal(keep, ~np.isin(ids, exclude))
        assert keep[ids == exclude[0] + _EXCLUDE_SLOTS * 7].all()
        # Unsorted and absent excluded ids are fine too.
        keep = _not_among(ids, np.array([ids[9], -1 + 2**40, ids[2]]))
        assert int((~keep).sum()) == 2

    def test_norm_blocks_follow_rows(self):
        index = make_index(metric=Metric.INNER_PRODUCT)
        plan = make_plan(index)
        table = slice_norms(index.base, plan.slices)
        packed = ShardPackedBase.build(index, plan, base_slice_norms=table)
        lists = plan.lists_of_shard(1)
        part = packed.gather(1, lists)
        np.testing.assert_array_equal(part.norms, table[part.ids])


class TestInvalidation:
    def test_version_moves_on_add_and_remove(self):
        index = make_index()
        plan = make_plan(index)
        packed = ShardPackedBase.build(index, plan)
        assert packed.matches(index)
        index.add(np.ones((3, DIM), dtype=np.float32))
        assert not packed.matches(index)
        packed = ShardPackedBase.build(index, plan)
        assert packed.matches(index)
        index.remove_ids([0, 1])
        assert not packed.matches(index)
        # Removing already-dead ids is a no-op and must NOT invalidate.
        packed = ShardPackedBase.build(index, plan)
        index.remove_ids([0, 1])
        assert packed.matches(index)

    def test_staleness_survives_persistence_roundtrip(self, tmp_path):
        """A reloaded index must never alias a stale layout.

        Reloading resets the version counter, so a layout built
        against the original object can collide with the clone on
        ``(version, ntotal)`` alone — identity is keyed by ``uid``.
        """
        index = make_index()
        plan = make_plan(index)
        packed = ShardPackedBase.build(index, plan)
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = IVFFlatIndex.load(path)
        # One removal on the clone lines its counters up exactly with
        # the original the layout was built from — the collision.
        loaded.remove_ids([0])
        assert loaded.version == index.version
        assert loaded.ntotal == index.ntotal
        assert not packed.matches(loaded)
        assert not packed.can_refresh(loaded)
        with pytest.raises(RuntimeError, match="cannot be refreshed"):
            packed.refresh(loaded)
        # A layout built against the clone is fresh for it.
        assert ShardPackedBase.build(loaded, plan).matches(loaded)

    def test_kernel_caches_until_stale(self):
        index = make_index()
        plan = make_plan(index)
        kernel = ScanKernel(index, plan)
        first = kernel.packed_base()
        assert first is kernel.packed_base()  # cached, not rebuilt
        assert kernel.layout_builds == 1
        index.add(np.ones((2, DIM), dtype=np.float32))
        refreshed = kernel.packed_base()
        # A small add is absorbed in place as a delta segment — the
        # base generation (and the object identity) survives.
        assert refreshed is first
        assert refreshed.matches(index)
        assert refreshed.delta_rows == 2
        assert kernel.layout_builds == 1
        assert kernel.layout_refreshes == 1
        assert refreshed is kernel.packed_base()

    def test_kernel_auto_compacts_past_ratio(self):
        index = make_index()
        plan = make_plan(index)
        kernel = ScanKernel(index, plan, delta_compact_ratio=0.1)
        first = kernel.packed_base()
        rng = np.random.default_rng(5)
        index.add(rng.standard_normal((N // 5, DIM)).astype(np.float32))
        compacted = kernel.packed_base()
        # N//5 new rows exceed 10% of the base: deltas get merged into
        # a fresh generation.
        assert compacted is not first
        assert compacted.delta_rows == 0
        assert compacted.generation > first.generation
        assert kernel.layout_compactions == 1
        assert kernel.layout_builds == 2

    def test_kernel_explicit_compact(self):
        index = make_index()
        plan = make_plan(index)
        kernel = ScanKernel(index, plan, auto_compact=False)
        first = kernel.packed_base()
        index.add(np.ones((2, DIM), dtype=np.float32))
        index.remove_ids([0])
        assert kernel.packed_base() is first  # auto-compaction is off
        stats = kernel.compact()
        assert stats["compacted"] is True
        assert stats["delta_rows_merged"] == 2
        assert stats["tombstones_cleared"] == 1
        second = kernel.packed_base()
        assert second is not first
        assert second.delta_rows == 0
        assert second.tombstones_since == 0
        # Nothing pending: a second compact is a no-op.
        assert kernel.compact()["compacted"] is False

    def test_rebuilt_layout_sees_mutations(self):
        index = make_index()
        plan = make_plan(index)
        kernel = ScanKernel(index, plan)
        kernel.packed_base()
        new_rows = np.full((2, DIM), 0.5, dtype=np.float32)
        index.add(new_rows)
        removed = index.list_members(int(plan.lists_of_shard(0)[0]))[:3]
        index.remove_ids(removed)
        packed = kernel.packed_base()
        gathered: list[np.ndarray] = []
        for shard in range(plan.n_vector_shards):
            part = packed.gather(shard, plan.lists_of_shard(shard))
            np.testing.assert_array_equal(rows_of(part), index.base[part.ids])
            gathered.append(part.ids)
        all_ids = np.concatenate(gathered)
        new_ids = np.arange(N, N + 2)
        assert np.isin(new_ids, all_ids).all()  # added rows present
        assert not np.isin(removed, all_ids).any()  # deleted ids gone

    def test_packed_gather_matches_legacy_candidates(self):
        """Per (query, shard): same candidate set as index.candidates."""
        index = make_index()
        plan = make_plan(index)
        kernel = ScanKernel(index, plan)
        packed = kernel.packed_base()
        rng = np.random.default_rng(3)
        queries = rng.standard_normal((4, DIM)).astype(np.float32)
        probes = index.probe(queries, 4)
        for probe_row in probes:
            for shard in range(plan.n_vector_shards):
                lists_here = shard_candidate_lists(plan, probe_row, shard)
                ids, *_ = packed.gather(shard, lists_here)
                np.testing.assert_array_equal(
                    np.sort(ids), np.sort(index.candidates(lists_here))
                )


class TestSQ8Codes:
    def test_train_encode_decode_roundtrip_bounds(self):
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((50, DIM)).astype(np.float32)
        lo, scale = sq8_train_params(rows)
        codes = sq8_encode(rows, lo, scale)
        assert codes.dtype == np.uint8
        decoded = sq8_decode(codes, lo, scale)
        # Max reconstruction error is half a quantization step.
        assert np.all(
            np.abs(decoded - rows.astype(np.float64)) <= scale / 2 + 1e-12
        )

    def test_train_params_constant_dimension(self):
        """Zero-span dimensions must still give a positive scale and a
        lossless roundtrip for the constant value."""
        rows = np.ones((10, DIM), dtype=np.float32) * 3.25
        lo, scale = sq8_train_params(rows)
        assert np.all(scale > 0)
        codes = sq8_encode(rows, lo, scale)
        np.testing.assert_array_equal(codes, 0)
        decoded = sq8_decode(codes, lo, scale)
        np.testing.assert_allclose(decoded, 3.25, rtol=0, atol=1e-9)

    def test_empty_base_params(self):
        lo, scale = sq8_train_params(np.empty((0, DIM), dtype=np.float32))
        assert np.all(scale > 0)
        assert lo.shape == (DIM,) and scale.shape == (DIM,)

    def test_slice_errors_bound_decoded_distance(self):
        """err[r, s] >= the true L2 norm of slice-s reconstruction error."""
        index = make_index()
        plan = make_plan(index)
        rows = index.base[:40]
        lo, scale = sq8_train_params(index.base)
        codes = sq8_encode(rows, lo, scale)
        err = sq8_slice_errors(rows, codes, lo, scale, plan.slices)
        assert err.shape == (40, plan.slices.n_slices)
        assert err.dtype == np.float32
        decoded = sq8_decode(codes, lo, scale)
        for s in range(plan.slices.n_slices):
            start, stop = plan.slices.slice_range(s)
            seg = rows[:, start:stop].astype(np.float64) - decoded[:, start:stop]
            true = np.sqrt(np.einsum("ij,ij->i", seg, seg))
            assert np.all(err[:, s].astype(np.float64) >= true)

    def test_build_with_codes_and_gather_sq8(self):
        index = make_index()
        plan = make_plan(index)
        packed = ShardPackedBase.build(index, plan, with_codes=True)
        assert packed.has_codes
        assert packed.codes_nbytes > 0
        # fp32 rows dominate the layout: codes are a quarter of them.
        assert packed.codes_nbytes * 4 == packed.rows_nbytes
        for shard in range(plan.n_vector_shards):
            lists = plan.lists_of_shard(shard)
            ref = packed.gather(shard, lists)
            ref_rows = rows_of(ref)
            part = packed.gather_sq8(shard, lists)
            np.testing.assert_array_equal(part.ids, ref.ids)
            np.testing.assert_array_equal(part.local, ref.local)
            # codes decode to within half a step of the fp32 rows, and
            # the local indices recover those exact rows for re-rank.
            np.testing.assert_array_equal(
                part.exact.rows(part.local), ref_rows
            )
            codes = rows_of(part)
            assert codes.dtype == np.uint8 and codes.shape == ref_rows.shape
            decoded = sq8_decode(codes, packed.code_lo, packed.code_scale)
            assert np.all(
                np.abs(decoded - ref_rows.astype(np.float64))
                <= packed.code_scale / 2 + 1e-12
            )
            assert part.err.dtype == np.float32
            assert part.err.shape == (part.ids.size, plan.slices.n_slices)
            np.testing.assert_array_equal(
                part.err,
                sq8_slice_errors(
                    ref_rows, codes, packed.code_lo, packed.code_scale,
                    plan.slices,
                ),
            )

    def test_gather_sq8_masks_match_gather(self):
        index = make_index()
        plan = make_plan(index)
        packed = ShardPackedBase.build(index, plan, with_codes=True)
        lists = plan.lists_of_shard(0)
        all_ids, *_ = packed.gather(0, lists)
        index.remove_ids(all_ids[1::2])
        assert packed.refresh(index)
        exclude = all_ids[:4]
        ref = packed.gather(0, lists, exclude=exclude)
        part = packed.gather_sq8(0, lists, exclude=exclude)
        np.testing.assert_array_equal(part.ids, ref.ids)
        np.testing.assert_array_equal(
            part.exact.rows(part.local), rows_of(ref)
        )
        assert rows_of(part).shape[0] == part.err.shape[0] == part.ids.size

    def test_gather_sq8_without_codes_raises(self):
        index = make_index()
        plan = make_plan(index)
        packed = ShardPackedBase.build(index, plan)
        assert not packed.has_codes
        assert packed.codes_nbytes == 0
        with pytest.raises(RuntimeError, match="codes"):
            packed.gather_sq8(0, plan.lists_of_shard(0))

    def test_kernel_rejects_unknown_scan_precision(self):
        index = make_index()
        plan = make_plan(index)
        with pytest.raises(ValueError, match="scan_precision"):
            ScanKernel(index, plan, scan_precision="fp16")

    def test_kernel_sq8_cache_rejects_codeless_layout(self):
        """A cached fp32-only layout is stale for an sq8 kernel."""
        index = make_index()
        plan = make_plan(index)
        kernel = ScanKernel(index, plan, scan_precision="sq8")
        packed = kernel.packed_base()
        assert packed.has_codes
        assert packed is kernel.packed_base()  # cached while fresh
        # Hand the kernel a codeless layout of the right version: it
        # must rebuild rather than scan without codes.
        kernel._packed = ShardPackedBase.build(index, plan)
        rebuilt = kernel.packed_base()
        assert rebuilt.has_codes


def test_gather_is_independent_of_base_size():
    """The point of packing: gather cost scales with the shard, and what
    a stage takes out of the slabs is a fresh copy (mutating it must
    not corrupt the layout)."""
    index = make_index()
    plan = make_plan(index)
    packed = ShardPackedBase.build(index, plan)
    lists = plan.lists_of_shard(0)
    part = packed.gather(0, lists)
    part.slabs.take(0, part.local)[:] = -1.0
    rows_of(part)[:] = -1.0
    again = packed.gather(0, lists)
    np.testing.assert_array_equal(part.ids, again.ids)
    np.testing.assert_array_equal(rows_of(again), index.base[again.ids])


class TestSlabLayout:
    """Rows live as one contiguous slab per (shard, dimension block)."""

    @staticmethod
    def _all_parts(packed, plan, sq8=False):
        gather = packed.gather_sq8 if sq8 else packed.gather
        return [
            gather(shard, plan.lists_of_shard(shard))
            for shard in range(plan.n_vector_shards)
        ]

    @staticmethod
    def _assert_slabs(packed, plan):
        """No row-major (n, dim) block anywhere: every stored row array
        is the contiguous (n, width) slab of its dimension block."""
        widths = list(plan.slices.widths())
        for shards, dtype in (
            (packed._rows, np.float32), (packed._drows, np.float32),
            (packed._codes, np.uint8), (packed._dcodes, np.uint8),
        ):
            for shard, slabs in enumerate(shards):
                if slabs is None:
                    continue
                slabs = [
                    slab.view if isinstance(slab, GrowableArray) else slab
                    for slab in slabs
                ]
                assert [slab.shape[1] for slab in slabs] == widths
                assert len({slab.shape[0] for slab in slabs}) == 1
                for slab in slabs:
                    assert slab.dtype == dtype
                    assert slab.flags["C_CONTIGUOUS"]

    def _check_rows(self, packed, plan, index, sq8=False):
        self._assert_slabs(packed, plan)
        seen = []
        for part in self._all_parts(packed, plan, sq8):
            exact = part.exact if sq8 else part.slabs
            rows = exact.rows(part.local)
            assert rows.tobytes() == index.base[part.ids].tobytes()
            if sq8:
                expect = sq8_encode(
                    index.base[part.ids], packed.code_lo, packed.code_scale
                )
                assert rows_of(part).tobytes() == expect.tobytes()
            seen.append(part.ids)
        live = np.flatnonzero(~np.asarray(index.deleted_mask))
        np.testing.assert_array_equal(np.sort(np.concatenate(seen)), live)

    @pytest.mark.parametrize("sq8", [False, True])
    def test_slabs_reassemble_to_base_rows_through_the_write_path(self, sq8):
        index = make_index()
        plan = make_plan(index, n_vector_shards=2, n_dim_blocks=3)
        kernel = ScanKernel(
            index, plan, scan_precision="sq8" if sq8 else "fp32",
            auto_compact=False,
        )
        packed = kernel.packed_base()
        self._check_rows(packed, plan, index, sq8)
        # Delta rows after a refresh (and tombstones beside them).
        rng = np.random.default_rng(11)
        index.add(rng.standard_normal((17, DIM)).astype(np.float32))
        index.remove_ids([3, 4, N + 2])
        assert kernel.packed_base() is packed
        assert packed.delta_rows == 17
        self._check_rows(packed, plan, index, sq8)
        # A compaction folds them into the next generation's slabs.
        assert kernel.compact()["compacted"]
        compacted = kernel.packed_base()
        assert compacted.delta_rows == 0
        self._check_rows(compacted, plan, index, sq8)

    @staticmethod
    def _round_trip_cases():
        """``(index, plan, base norms)``: the plain grid; an
        inner-product index (norms and delta norms exist); slabs
        8/8/7/7 wide over 1 001 rows (an odd-sized uint8 code slab ends
        off every wider dtype's alignment); a shard that owns no list."""
        index = make_index()
        yield index, make_plan(index, n_vector_shards=2, n_dim_blocks=3), None
        index = make_index(metric=Metric.INNER_PRODUCT)
        plan = make_plan(index, n_vector_shards=2, n_dim_blocks=3)
        yield index, plan, slice_norms(index.base, plan.slices)
        index = make_index(n=1001, dim=30)
        yield index, make_plan(index, n_vector_shards=2, n_dim_blocks=4), None
        index = make_index()
        plan = make_plan(index, n_vector_shards=2, n_dim_blocks=3)
        no_lists = np.zeros_like(plan.shard_of_list)  # all in shard 0
        yield index, dataclasses.replace(plan, shard_of_list=no_lists), None

    @staticmethod
    def _assert_mirrors(attached, owner, heap):
        """A worker's view is the owner's layout, array for array and
        byte count for byte count — and the heap layout's in size."""
        mine, theirs = _held_arrays(attached), _held_arrays(owner)
        assert mine.keys() == theirs.keys() == _held_arrays(heap).keys()
        for attr, arrays in mine.items():
            assert len(arrays) == len(theirs[attr]), attr
            for got, want in zip(arrays, theirs[attr]):
                assert got.flags.aligned, attr
                assert got.dtype == want.dtype, attr
                np.testing.assert_array_equal(got, want)
        manifest = owner.manifest()
        specs = [manifest["spec"]]
        if manifest["overlay"] is not None:
            specs.append(manifest["overlay"]["spec"])
        for spec in specs:
            assert all(offset % 64 == 0 for offset, _, _ in spec.values())
        for counter in (
            "nbytes", "rows_nbytes", "codes_nbytes", "code_overhead_nbytes"
        ):
            assert (
                getattr(attached, counter)
                == getattr(owner, counter)
                == getattr(heap, counter)
            ), counter

    @pytest.mark.parametrize("sq8", [False, True])
    def test_slabs_survive_the_shared_memory_round_trip(self, sq8):
        from repro.core.layout import SharedShardPackedBase

        for index, plan, norms in self._round_trip_cases():
            heap, packed = (
                ShardPackedBase.build(
                    index, plan, base_slice_norms=norms, with_codes=sq8
                )
                for _ in range(2)
            )
            shared = SharedShardPackedBase.from_packed(packed)
            attached = []
            try:
                attached.append(
                    SharedShardPackedBase.attach(shared.manifest())
                )
                self._check_rows(shared, plan, index, sq8)
                self._check_rows(attached[0], plan, index, sq8)
                self._assert_mirrors(attached[0], shared, heap)
                # Deltas travel through the overlay segment.
                rng = np.random.default_rng(12)
                added = rng.standard_normal((9, index.dim)).astype(np.float32)
                index.add(added)
                index.remove_ids([7])
                if norms is not None:
                    norms = slice_norms(added, plan.slices)
                assert heap.refresh(index, new_slice_norms=norms)
                assert shared.refresh(index, new_slice_norms=norms)
                assert shared.sync_overlay()
                attached.append(
                    SharedShardPackedBase.attach(shared.manifest())
                )
                assert attached[1].delta_rows == 9
                self._check_rows(shared, plan, index, sq8)
                self._check_rows(attached[1], plan, index, sq8)
                self._assert_mirrors(attached[1], shared, heap)
            finally:
                for layout in attached:
                    layout.close()
                shared.unlink()

    def test_every_held_array_is_a_declared_family_and_reaches_workers(self):
        """The tables are the format: whatever a heap layout holds is a
        declared family, and its keys are in the owner's manifest exactly
        when it is held — an array packed by ``build`` but left out of
        the tables would never reach a worker, and fails here."""
        from repro.core.layout import (
            _BASE_FAMILIES,
            _OVERLAY_FAMILIES,
            SharedShardPackedBase,
        )

        declared = {
            "_" + name: optional
            for name, _, optional, *_ in _BASE_FAMILIES + _OVERLAY_FAMILIES
        }
        assert len(declared) == 16
        for sq8 in (False, True):
            for index, plan, norms in self._round_trip_cases():
                heap = ShardPackedBase.build(
                    index, plan, base_slice_norms=norms, with_codes=sq8
                )
                held = set(_held_arrays(heap))
                assert held <= set(declared)
                absent = set(declared) - held
                assert all(declared[attr] for attr in absent), absent
                shared = SharedShardPackedBase.from_packed(heap)
                try:
                    assert shared.sync_overlay()
                    manifest = shared.manifest()
                    keys = [*manifest["spec"], *manifest["overlay"]["spec"]]
                    assert len(keys) == len(set(keys))
                    in_manifest = {
                        "_" + re.sub(r"\d+(_\d+)?$", "", key) for key in keys
                    }
                    assert in_manifest == held
                finally:
                    shared.unlink()

    def test_byte_counts_equal_the_row_major_formulae(self):
        """Slabs re-arrange the row bytes; they do not add any."""
        index = make_index(metric=Metric.INNER_PRODUCT)
        plan = make_plan(index, n_vector_shards=2, n_dim_blocks=3)
        m = plan.slices.n_slices
        kernel = ScanKernel(
            index, plan, scan_precision="sq8", auto_compact=False
        )
        packed = kernel.packed_base()

        def expected(n_base, n_delta, ntotal):
            n = n_base + n_delta
            rows, codes = n * DIM * 4, n * DIM
            tables = n * (8 + m * 8 + m * 4)  # ids, norms, code_err
            return rows, codes, (
                rows + codes + tables
                + n_delta * 8          # delta list tags
                + 2 * NLIST * 8        # list_start / list_stop
                + ntotal               # tombstone mask
                + 2 * DIM * 8          # code_lo / code_scale
            )

        rows, codes, total = expected(N, 0, N)
        assert (packed.rows_nbytes, packed.codes_nbytes) == (rows, codes)
        assert packed.nbytes == total
        index.add(np.ones((5, DIM), dtype=np.float32))
        assert kernel.packed_base() is packed
        rows, codes, total = expected(N, 5, N + 5)
        assert (packed.rows_nbytes, packed.codes_nbytes) == (rows, codes)
        assert packed.nbytes == total
