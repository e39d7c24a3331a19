"""Packed shard-major base layouts (the batched executor's data plane).

Candidate gathering used to fancy-index the full base matrix once per
(query, shard) — exactly the scattered DRAM traffic that dominates
IVF scan cost at scale. :class:`ShardPackedBase` instead packs each
vector shard's list members at plan time, ordered list-by-list with a
per-list local row range, as one contiguous *slab* per dimension block
of the plan: ``rows[shard][block]`` has shape ``(n, width)``. A slab is
what one grid cell's machine holds in the paper (§3.1, §4.1), and it is
what one (shard, slice) scan stage reads. Gathering a query's
candidates is index work only — a handful of ``arange`` ranges and the
id lookups — and returns a :class:`CandidatePart` of shard-local row
indices plus a :class:`ShardSlabs` handle; no row is copied until a
scan stage takes exactly the slice columns of exactly the rows still
alive.

The packed arrays are maintained LSM-style. A full :meth:`build` packs
one immutable *base generation*; streaming mutations never touch it.
:meth:`refresh` appends newly added rows to per-shard append-only
*delta segments* (slabs/ids/norms, plus SQ8 codes encoded against the
generation's frozen quantization params) and mirrors deletions into a
*tombstone mask* (one ``bool`` byte per row) that gathers apply before
any row reaches a heap — so an ``add``/``remove`` batch moves O(batch)
rows plus that mask, never the O(ntotal) packed rows, and the
shared-memory copy of the base never has to be re-homed for it.
Because every score is computed per row (the exact einsums are
independent of which other rows share a block, and a phase-one BLAS
score is only ever used as a bound), scanning base + delta under a
tombstone mask answers byte-identically to scanning a freshly rebuilt
layout. When deltas and tombstones accumulate past a
ratio of the base (:meth:`should_compact`), a *compaction* merges them
into a new base generation via an ordinary rebuild.
"""

from __future__ import annotations

import itertools
import weakref
from typing import NamedTuple

import numpy as np

from repro.core.partition import PartitionPlan
from repro.distance.partial import exact_partial
from repro.index.quantized import (  # the codec's one home; re-exported
    sq8_decode,
    sq8_encode,
    sq8_train_params,
)
from repro.util.growable import GrowableArray

#: Process-wide base-generation ids: every full build/compaction gets
#: a fresh one, so the process backend can tell "same generation, new
#: deltas" (overlay sync) from "new generation" (full shm re-home).
_GENERATIONS = itertools.count(1)

#: How a family is indexed: one array for the whole layout, one per
#: vector shard, or one per (shard, dimension block) grid cell.
_GLOBAL, _SHARD, _CELL = "global", "shard", "cell"

#: The base generation's arrays, each declared once: ``(name, scope,
#: may be absent, delta twin)``. Family ``rows`` is the attribute
#: ``_rows`` (``_rows[shard][block]``; ``_ids[shard]`` for a shard
#: family) and the segment keys ``rows{shard}_{block}`` (``ids{shard}``,
#: ``list_start``). An absent family holds None, per shard where it is
#: indexed: norms on L2, the SQ8 arrays without codes. The twin is the
#: family's append-only delta segment — zero rows to begin with, of the
#: base family's scope, row shape and dtype. So delta norms are float64
#: to match the base norm table bit-for-bit: slice norms feed the
#: conservative pruning bound, and a float32 round-down (even half an
#: ulp) could unsafely prune a true candidate.
_BASE_FAMILIES = (
    ("rows", _CELL, False, "drows"),
    ("ids", _SHARD, False, "dids"),
    ("norms", _SHARD, True, "dnorms"),
    ("codes", _CELL, True, "dcodes"),
    ("code_err", _SHARD, True, "dcode_err"),
    ("list_start", _GLOBAL, False, None),
    ("list_stop", _GLOBAL, False, None),
    ("code_lo", _GLOBAL, True, None),
    ("code_scale", _GLOBAL, True, None),
)

#: What mutations move, and the shared layout's overlay segment
#: mirrors: the delta twins, each delta row's list tag (base rows lie
#: in ``list_start``/``list_stop`` ranges instead) and the tombstone
#: mask — ``(name, scope, may be absent)``.
_OVERLAY_FAMILIES = tuple(
    (twin, scope, optional)
    for _, scope, optional, twin in _BASE_FAMILIES
    if twin is not None
) + (("dlists", _SHARD, False), ("tombstone", _GLOBAL, False))


def _key(name: str, shard=None, block=None) -> str:
    """Segment key: ``list_start``, ``ids{shard}``, ``rows{shard}_{block}``."""
    if shard is None:
        return name
    return f"{name}{shard}" if block is None else f"{name}{shard}_{block}"


def _named_arrays(layout, families):
    """``(segment key, array)`` of every array of ``families`` held.

    The one walk over a family table — byte counts and both segment
    writers go through it. Growth buffers yield their logical contents.
    """
    def plain(arr):
        return arr.view if isinstance(arr, GrowableArray) else arr

    for name, scope, *_ in families:
        held = getattr(layout, "_" + name)
        if held is None:
            continue
        if scope is _GLOBAL:
            yield name, held
        elif scope is _SHARD:
            for s, arr in enumerate(held):
                if arr is not None:
                    yield _key(name, s), plain(arr)
        else:
            for s, slabs in enumerate(held):
                for b, slab in enumerate(slabs or ()):
                    yield _key(name, s, b), plain(slab)


def _bind(families, arrays: dict, n_shards: int, n_blocks: int, wrap=None):
    """Inverse of :func:`_named_arrays`: ``{family name: arrays}``.

    ``arrays`` maps segment keys to arrays; a family whose keys are
    missing is absent (None). ``wrap`` is applied to the indexed arrays
    only (the overlay's are growth buffers; a global array never grows).
    """

    def indexed(key: str):
        arr = arrays.get(key)
        return arr if arr is None or wrap is None else wrap(arr)

    bound = {}
    for name, scope, *_ in families:
        if scope is _GLOBAL:
            bound[name] = arrays.get(name)
        elif scope is _SHARD:
            bound[name] = [indexed(_key(name, s)) for s in range(n_shards)]
        else:
            cells = [
                [indexed(_key(name, s, b)) for b in range(n_blocks)]
                for s in range(n_shards)
            ]
            # A shard holds a cell family for every block or for none.
            bound[name] = [
                None if any(slab is None for slab in slabs) else slabs
                for slabs in cells
            ]
    return bound


def _sq8_slab_error(
    rows: np.ndarray, codes: np.ndarray, lo: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Float64 reconstruction-error norm of every row of one slab."""
    return np.sqrt(exact_partial(rows, sq8_decode(codes, lo, scale), True))


def _sq8_round_up(err: np.ndarray) -> np.ndarray:
    """Float32 error table, never below its float64 source: the cast
    rounds to nearest (at most half an ulp down), so one ``nextafter``
    bump toward +inf keeps the padded pruning bound lossless."""
    return np.nextafter(err.astype(np.float32), np.float32(np.inf))


def sq8_slice_errors(
    rows: np.ndarray,
    codes: np.ndarray,
    lo: np.ndarray,
    scale: np.ndarray,
    slices,
) -> np.ndarray:
    """Per-row per-slice reconstruction-error norms, rounded *up*.

    ``err[r, s] >= || rows[r, slice_s] - decode(codes[r, slice_s]) ||``
    is the padding that keeps SQ8 pruning bounds lossless.
    """
    err = np.empty((rows.shape[0], slices.n_slices), dtype=np.float64)
    for j in range(slices.n_slices):
        cols = slice(*slices.slice_range(j))
        err[:, j] = _sq8_slab_error(
            rows[:, cols], codes[:, cols], lo[cols], scale[cols]
        )
    return _sq8_round_up(err)


def _release_segment(shm, unlink: bool) -> None:
    """Drop this process's mapping; the creator (``unlink``) also
    frees the pages.

    Also the finalizer body for owner layouts. Module-level (not a
    bound method) so the ``weakref.finalize`` callback holds no
    reference to the layout; it keeps only the ``SharedMemory`` handle
    alive, which is exactly the resource it must release. Runs at most
    once — :meth:`SharedShardPackedBase.unlink` runs it early on the
    explicit-cleanup path.
    """
    try:
        shm.close()
    except (OSError, BufferError):
        pass
    if unlink:
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass


def _attach_shm(name: str):
    """Attach an existing segment without resource-tracker tracking.

    Before Python 3.13's ``track=False``, attaching by name registers
    the segment with the process's ``resource_tracker``, which (a)
    would unlink the parent-owned segment when a worker exits and (b)
    races other attachers of the same name on the tracker's shared
    set, spraying harmless-but-noisy KeyErrors. Only the creating
    process may own cleanup, so attachers suppress registration.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


#: Every array of a segment starts on a multiple of this, so it is
#: aligned for its dtype whatever odd-sized slab lies before it (numpy
#: tolerates a misaligned view; a ``memmap`` or C reader would not).
_SEGMENT_ALIGN = 64


def _segment_views(buf, spec: dict) -> "dict[str, np.ndarray]":
    """Zero-copy views over a segment, one per ``{key: (offset, shape,
    dtype)}`` record of its spec."""
    return {
        key: np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=buf, offset=offset
        )
        for key, (offset, shape, dtype) in spec.items()
    }


def _write_segment(arrays):
    """Copy ``(key, array)`` pairs end to end into one fresh segment.

    Returns the ``SharedMemory`` and the spec that reads it back.
    Padding lives in the segment size only; no byte count reports it.
    """
    from multiprocessing import shared_memory

    arrays = list(arrays)
    spec: dict[str, tuple[int, tuple, str]] = {}
    end = 0
    for key, arr in arrays:
        offset = -(-end // _SEGMENT_ALIGN) * _SEGMENT_ALIGN
        spec[key] = (offset, tuple(arr.shape), arr.dtype.str)
        end = offset + arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(1, end))
    views = _segment_views(shm.buf, spec)
    for key, arr in arrays:
        views[key][...] = arr
    return shm, spec


def _merged(base_part, delta_part):
    """Base-then-delta concatenation where either side may be absent."""
    if delta_part is None:
        return base_part
    if base_part is None:
        return delta_part
    return np.concatenate([base_part, delta_part])


def _take_both(base, base_sel, delta, delta_sel):
    """``base[base_sel]`` then ``delta.view[delta_sel]`` as one table.

    For the small per-candidate tables (slice norms, SQ8 error norms)
    only — row slabs are never gathered here. ``delta`` is a
    :class:`GrowableArray`; either selection may be None (no candidates
    on that side), and a None ``base`` (no norm table on L2) yields
    None.
    """
    if base is None:
        return None
    if delta_sel is None:
        return base[:0] if base_sel is None else base[base_sel]
    if base_sel is None:
        return delta.view[delta_sel]
    return np.concatenate([base[base_sel], delta.view[delta_sel]])


#: Slots of the direct-mapped filter :func:`_not_among` tests ids
#: against; a power of two far above any prewarm size, so aliases are
#: rare (<1 % of candidates at 32 excluded ids) and the table stays 4 KB.
_EXCLUDE_SLOTS = 4096


def _not_among(ids: np.ndarray, exclude: np.ndarray) -> np.ndarray:
    """Mask of ``ids`` that are not one of the few ``exclude`` ids.

    O(len(ids) + len(exclude)) whatever the index size: a fixed-size
    table keyed on the ids' low bits flags every true hit plus a few
    aliases, and only those suspects are compared exactly.
    """
    table = np.zeros(_EXCLUDE_SLOTS, dtype=bool)
    table[exclude & (_EXCLUDE_SLOTS - 1)] = True
    hit = table[ids & (_EXCLUDE_SLOTS - 1)]
    suspects = np.flatnonzero(hit)
    hit[suspects] = (ids[suspects, None] == exclude).any(axis=1)
    return ~hit


class ShardSlabs:
    """One shard's rows where they lie: a slab per dimension block.

    ``base[j]`` is the immutable generation's ``(n_base, width_j)``
    slab of block ``j`` and ``delta[j]`` the delta segment's; a
    shard-local row index below ``n_base`` addresses the base slab, the
    rest the delta slab. The handle copies nothing — a scan stage calls
    :meth:`take` for exactly the slice and rows it is about to score.

    A plain row block is the same thing with column views for slabs
    (:meth:`of_rows`), which is how :class:`~repro.core.pruning.
    ShardScan` serves callers that hold no packed layout.
    """

    __slots__ = ("base", "delta", "n_base")

    def __init__(
        self,
        base: "list[np.ndarray]",
        delta: "list[np.ndarray] | None" = None,
    ) -> None:
        self.base = base
        self.delta = delta
        self.n_base = base[0].shape[0]

    @classmethod
    def of_rows(cls, rows: np.ndarray, slices) -> "ShardSlabs":
        """Slabs that are the slice column views of one row block."""
        return cls([slices.take(rows, j) for j in range(slices.n_slices)])

    @property
    def max_width(self) -> int:
        return max(slab.shape[1] for slab in self.base)

    def take(
        self, block: int, local: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Rows ``local`` of slab ``block``, written into ``out``.

        ``local`` may mix base and delta rows in any order: a gather
        lists base rows first, but a group scan's dense index array
        concatenates its members'. With no delta attached this is one
        ``np.take`` straight into ``out``. With one, a single mask splits
        it: one take of every row from the base slab (``mode="clip"``
        maps a delta index onto a base row, overwritten next) and one
        take of the delta rows into their places.
        """
        base = self.base[block]
        if out is None:
            out = np.empty((local.size, base.shape[1]), dtype=base.dtype)
        if self.delta is None:
            return np.take(base, local, axis=0, out=out, mode="clip")
        in_delta = np.flatnonzero(local >= self.n_base)
        if in_delta.size < local.size:
            np.take(base, local, axis=0, out=out, mode="clip")
        if in_delta.size:
            out[in_delta] = self.delta[block].take(
                local[in_delta] - self.n_base, axis=0
            )
        return out

    def rows(self, local: np.ndarray) -> np.ndarray:
        """Full rows ``local`` re-assembled column-wise (a fresh copy):
        what prewarm scores, and what tests inspect."""
        return np.concatenate(
            [self.take(j, local) for j in range(len(self.base))], axis=1
        )


def _slab_nbytes(shards) -> int:
    """Bytes of ``shards[shard][block]`` slabs (None shards hold none)."""
    return int(
        sum(slab.nbytes for slabs in shards if slabs is not None
            for slab in slabs)
    )


class CandidatePart(NamedTuple):
    """One (query, shard) candidate gather, either precision.

    Index arrays and a handle — no candidate row is copied to build
    one. :meth:`ShardPackedBase.gather` fills the first four fields;
    :meth:`ShardPackedBase.gather_sq8` fills all six, so ``err is None``
    is what tells a float32 part from an SQ8 one.

    Attributes:
        ids: global candidate ids.
        local: each candidate's shard-local row index into ``slabs``
            (and ``exact``), base rows before delta rows.
        slabs: what the scan streams — the shard's float32 slabs, or
            its uint8 code slabs on the SQ8 path.
        norms: per-candidate per-slice norms (None for L2).
        err: per-candidate per-slice SQ8 error norms.
        exact: the shard's float32 slabs on the SQ8 path; survivors
            re-rank against ``exact.take(block, local)``.
    """

    ids: np.ndarray
    local: np.ndarray
    slabs: ShardSlabs
    norms: "np.ndarray | None"
    err: "np.ndarray | None" = None
    exact: "ShardSlabs | None" = None


class _ListRows(NamedTuple):
    """One probed list's base rows where they lie, and who probes it:
    a block of :meth:`ShardPackedBase._list_rows`.

    Attributes:
        start: shard-local index of the list's first row; its rows are
            ``start … start + ids.size`` of every slab.
        ids: the rows' global ids (a view of the packed table).
        norms: their per-slice norms (a view; None for L2).
        members: ascending indices of the group members probing it.
        live: rows no tombstone hides (None: all).
        drops: ``(columns, mask)`` per prewarmed set drawn from this
            list: the members (columns) whose nearest list it is and who
            prewarmed the same ids, and the rows they did not prewarm.
        counts: candidates per member column — what a per-member gather
            of this list would hold.
        err: the rows' per-slice SQ8 error norms (a view; None: fp32).
    """

    start: int
    ids: np.ndarray
    norms: "np.ndarray | None"
    members: np.ndarray
    live: "np.ndarray | None"
    drops: tuple
    counts: np.ndarray
    err: "np.ndarray | None" = None

    def members_in(self, lo: int, hi: int) -> "_ListRows | None":
        """The block restricted to members ``lo … hi - 1``, renumbered
        from 0 (None when none of them probes it)."""
        c0, c1 = np.searchsorted(self.members, (lo, hi)).tolist()
        if c0 == c1:
            return None
        drops = []
        for cols, keep in self.drops:
            cols = cols[(cols >= c0) & (cols < c1)]
            if cols.size:
                drops.append((cols - c0, keep))
        return self._replace(
            members=self.members[c0:c1] - lo, drops=tuple(drops),
            counts=self.counts[c0:c1],
        )


class ShardPackedBase:
    """Per-shard contiguous copies of list-member rows, ids, and norms.

    Rows (and SQ8 codes) are held as one ``(n, width)`` slab per
    dimension block of the plan — ``rows[shard][block]`` — never as a
    row-major ``(n, dim)`` block; the byte count is the same.

    Build with :meth:`build`; query with :meth:`gather`. The base
    arrays are an immutable snapshot of the index at build time;
    streaming mutations land in per-shard delta segments and the
    tombstone mask via :meth:`refresh` — use :meth:`matches` to detect
    staleness and :meth:`can_refresh` to tell "refreshable in place"
    from "needs a full rebuild".

    Attributes:
        version: the index version this layout currently reflects.
        ntotal: base size currently reflected (cheap secondary
            staleness check for indexes that predate the version
            counter).
        index_uid: :attr:`IVFFlatIndex.uid` of the source index; keyed
            into staleness so a reloaded index (version counter reset)
            can never alias a layout packed from its predecessor.
        generation: base-generation id; moves only on full builds
            (including compactions), never on delta refreshes.
        delta_version: bumps on every in-place refresh; the process
            backend syncs its overlay segment when this moves.
    """

    def __init__(
        self, bound: dict, meta: dict, plan: PartitionPlan | None = None
    ) -> None:
        """One generation with nothing pending.

        Args:
            bound: ``{family name: arrays}`` for ``_BASE_FAMILIES``.
            meta: the record :meth:`_meta` emits; only ``version``,
                ``ntotal`` and ``index_uid`` are required, and an
                absent ``generation`` means a new one.
            plan: the plan packed from (None on attached layouts).
        """
        self._plan = plan
        self.version = meta["version"]
        self.ntotal = meta["ntotal"]
        self.index_uid = meta["index_uid"]
        self.generation = meta.get("generation") or next(_GENERATIONS)
        self.delta_version = meta.get("delta_version", 0)
        self._dead_at_build = meta.get("dead_at_build", 0)
        self._tombstones_since = meta.get("tombstones_since", 0)
        self._hold(bound)
        # The base generation never changes, so its bytes are counted
        # once.
        self._base_nbytes = sum(
            arr.nbytes for _, arr in _named_arrays(self, _BASE_FAMILIES)
        )
        self._with_norms = any(n is not None for n in self._norms)

        def empty(like: np.ndarray) -> GrowableArray:
            return GrowableArray(row_shape=like.shape[1:], dtype=like.dtype)

        for name, scope, _, twin in _BASE_FAMILIES:
            if twin is not None:
                twins = [
                    None if held is None
                    else [empty(slab) for slab in held] if scope is _CELL
                    else empty(held)
                    for held in bound[name]
                ]
                setattr(self, "_" + twin, twins)
        self._dlists = [GrowableArray(dtype=np.int64) for _ in self._ids]
        self._tombstone = np.zeros(self.ntotal, dtype=bool)

    def _hold(self, bound: dict) -> None:
        """Take ``{family name: arrays}`` as the family attributes."""
        for name, held in bound.items():
            setattr(self, "_" + name, held)
        self._nbytes_at = None  # (delta_version, nbytes) once counted

    def _meta(self) -> dict:
        """The scalars that, with the arrays, are the layout's state."""
        return {
            "version": self.version,
            "ntotal": self.ntotal,
            "index_uid": self.index_uid,
            "generation": self.generation,
            "delta_version": self.delta_version,
            "dead_at_build": self._dead_at_build,
            "tombstones_since": self._tombstones_since,
        }

    @classmethod
    def build(
        cls,
        index: "IVFFlatIndex",
        plan: PartitionPlan,
        base_slice_norms: np.ndarray | None = None,
        with_codes: bool = False,
    ) -> "ShardPackedBase":
        """Pack every shard's live list members, a slab per dim block.

        Args:
            index: trained+populated IVF index.
            plan: the partition plan whose shard grouping to pack.
            base_slice_norms: the kernel's per-slice norm table (IP
                metrics); packed alongside the rows so scans never
                index the full table again.
            with_codes: also pack the SQ8 representation — per-shard
                uint8 code slabs plus the per-row per-slice
                reconstruction-error table that pads the pruning
                bounds. Quantization params are trained on the live
                base at build time and re-homed / invalidated with
                everything else.
        """
        base = index.base
        blocks = [
            slice(*plan.slices.slice_range(j))
            for j in range(plan.slices.n_slices)
        ]
        rows: "list[list[np.ndarray]]" = []
        ids: list[np.ndarray] = []
        norms: list[np.ndarray | None] = []
        codes: "list[list[np.ndarray] | None]" = []
        code_err: "list[np.ndarray | None]" = []
        code_lo = code_scale = None
        if with_codes:
            code_lo, code_scale = sq8_train_params(base)
        list_start = np.zeros(index.nlist, dtype=np.int64)
        list_stop = np.zeros(index.nlist, dtype=np.int64)
        for shard in range(plan.n_vector_shards):
            shard_lists = plan.lists_of_shard(shard)
            members = [index.list_members(int(l)) for l in shard_lists]
            offset = 0
            for list_id, member_ids in zip(shard_lists, members):
                list_start[list_id] = offset
                offset += member_ids.size
                list_stop[list_id] = offset
            if members:
                shard_ids = np.concatenate(members).astype(np.int64)
            else:
                shard_ids = np.empty(0, dtype=np.int64)
            ids.append(shard_ids)
            # One gather per grid cell, straight into its slab: the
            # row-major (n, dim) shard block is never materialized.
            slabs = [
                np.ascontiguousarray(base[shard_ids, cols]) for cols in blocks
            ]
            rows.append(slabs)
            if base_slice_norms is None:
                norms.append(None)
            else:
                norms.append(
                    np.ascontiguousarray(base_slice_norms[shard_ids])
                )
            if with_codes:
                shard_codes = [
                    sq8_encode(slab, code_lo[cols], code_scale[cols])
                    for slab, cols in zip(slabs, blocks)
                ]
                codes.append(shard_codes)
                code_err.append(
                    _sq8_round_up(
                        np.stack(
                            [
                                _sq8_slab_error(
                                    slab, slab_codes,
                                    code_lo[cols], code_scale[cols],
                                )
                                for slab, slab_codes, cols in zip(
                                    slabs, shard_codes, blocks
                                )
                            ],
                            axis=1,
                        )
                    )
                )
            else:
                codes.append(None)
                code_err.append(None)
        tombstone = np.array(index.deleted_mask, dtype=bool, copy=True)
        layout = cls(
            dict(
                rows=rows,
                ids=ids,
                norms=norms,
                codes=codes,
                code_err=code_err,
                list_start=list_start,
                list_stop=list_stop,
                code_lo=code_lo,
                code_scale=code_scale,
            ),
            {
                "version": index.version,
                "ntotal": index.ntotal,
                "index_uid": index.uid,
                "dead_at_build": int(tombstone.sum()),
            },
            plan,
        )
        layout._tombstone = tombstone
        return layout

    def matches(self, index: "IVFFlatIndex") -> bool:
        """True while the layout still reflects the index's contents.

        Keys on the index *identity* (uid) as well as its mutation
        counters: a reloaded index restarts ``version`` at 0, so the
        counters alone could collide with a stale layout packed from
        the pre-save object.
        """
        return (
            self.index_uid == index.uid
            and self.version == index.version
            and self.ntotal == index.ntotal
        )

    # -- incremental maintenance ---------------------------------------

    def can_refresh(self, index: "IVFFlatIndex") -> bool:
        """True when :meth:`refresh` can absorb the index's mutations.

        The only index mutations are appends (ids grow monotonically)
        and tombstoning (flags flip one way), so any same-uid index
        that has moved forward is refreshable; a different index
        object, or one attached without a plan (worker-side layouts),
        needs a full rebuild.
        """
        return (
            self._plan is not None
            and self.index_uid == index.uid
            and index.ntotal >= self.ntotal
            and index.version >= self.version
        )

    def refresh(
        self,
        index: "IVFFlatIndex",
        new_slice_norms: np.ndarray | None = None,
    ) -> bool:
        """Absorb pending mutations into deltas/tombstones, in place.

        Appended rows are routed to their shard's delta segment (with
        per-slice norms, and SQ8 codes encoded against the *frozen*
        base-generation params — still lossless, because the pruning
        bound is padded by each row's actual reconstruction error and
        survivors re-rank against exact float32). Deletions only flip
        tombstone flags. The base arrays are never touched, so a
        mutation batch costs O(batch) rows plus one copy of the
        one-byte-per-row tombstone mask, not a repack.

        Args:
            index: the (mutated) source index; must satisfy
                :meth:`can_refresh`.
            new_slice_norms: per-slice norms of the appended rows
                (``index.base[ntotal_old:]``) when the layout packs
                norms; computed by the caller so the kernel's own norm
                table and the layout stay bitwise in sync.

        Returns:
            True when anything changed (and ``delta_version`` moved).
        """
        if self.matches(index):
            return False
        if not self.can_refresh(index):
            raise RuntimeError(
                "layout cannot be refreshed from this index; rebuild"
            )
        old_n, new_n = self.ntotal, index.ntotal
        if new_n > old_n:
            new_ids = np.arange(old_n, new_n, dtype=np.int64)
            lists = index.assignment_of(new_ids)
            shards = self._plan.shard_of_list[lists]
            if self._with_norms and new_slice_norms is None:
                raise ValueError(
                    "layout packs per-slice norms; refresh needs "
                    "new_slice_norms for the appended rows"
                )
            rows = index.base[old_n:new_n]
            for shard in np.unique(shards):
                sel = np.flatnonzero(shards == shard)
                self._append_delta(
                    int(shard),
                    new_ids[sel],
                    rows[sel],
                    lists[sel],
                    None
                    if new_slice_norms is None
                    else new_slice_norms[sel],
                )
        self._tombstone = np.array(index.deleted_mask, dtype=bool, copy=True)
        self._tombstones_since = (
            int(self._tombstone.sum()) - self._dead_at_build
        )
        self.version = index.version
        self.ntotal = new_n
        self.delta_version += 1
        return True

    def _append_delta(
        self,
        shard: int,
        ids: np.ndarray,
        rows: np.ndarray,
        lists: np.ndarray,
        norms: np.ndarray | None,
    ) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.float32)
        slices = self._plan.slices
        for j, slab in enumerate(self._drows[shard]):
            slab.append(slices.take(rows, j))
        self._dids[shard].append(ids)
        self._dlists[shard].append(lists)
        if self._dnorms[shard] is not None:
            self._dnorms[shard].append(norms)
        if self._dcodes[shard] is not None:
            codes = sq8_encode(rows, self._code_lo, self._code_scale)
            for j, slab in enumerate(self._dcodes[shard]):
                slab.append(slices.take(codes, j))
            self._dcode_err[shard].append(
                sq8_slice_errors(
                    rows, codes, self._code_lo, self._code_scale, slices
                )
            )

    @property
    def delta_rows(self) -> int:
        """Rows currently living in delta segments (all shards)."""
        return int(sum(len(d) for d in self._dids))

    @property
    def tombstones_since(self) -> int:
        """Rows tombstoned since this base generation was packed."""
        return int(self._tombstones_since)

    def should_compact(self, ratio: float) -> bool:
        """True when deltas + tombstones exceed ``ratio`` of the base."""
        base_rows = sum(ids.size for ids in self._ids)
        pending = self.delta_rows + self.tombstones_since
        return pending > ratio * max(1, base_rows)

    @property
    def n_shards(self) -> int:
        return len(self._rows)

    @property
    def n_blocks(self) -> int:
        """Dimension blocks (slabs per shard) the layout was packed in."""
        return len(self._rows[0]) if self._rows else 0

    @property
    def nbytes(self) -> int:
        """Total bytes held by the packed arrays (base + deltas).

        Counted once per change: only a refresh moves the deltas, and
        it moves ``delta_version`` with them; a search reads this for
        its report every call.
        """
        counted = self._nbytes_at
        if counted is None or counted[0] != self.delta_version:
            pending = _named_arrays(self, _OVERLAY_FAMILIES)
            counted = (
                self.delta_version,
                int(self._base_nbytes + sum(arr.nbytes for _, arr in pending)),
            )
            self._nbytes_at = counted
        return counted[1]

    @property
    def has_codes(self) -> bool:
        """True when the SQ8 representation was packed alongside rows."""
        return (
            self._code_lo is not None
            and self._code_scale is not None
            and all(c is not None for c in self._codes)
            and all(e is not None for e in self._code_err)
        )

    @property
    def code_lo(self) -> np.ndarray | None:
        """Per-dimension dequantization offset (float64)."""
        return self._code_lo

    @property
    def code_scale(self) -> np.ndarray | None:
        """Per-dimension dequantization step (float64, positive)."""
        return self._code_scale

    @property
    def rows_nbytes(self) -> int:
        """Bytes of the float32 row slabs alone (base + delta)."""
        return _slab_nbytes(self._rows) + _slab_nbytes(self._drows)

    @property
    def codes_nbytes(self) -> int:
        """Bytes of the uint8 code slabs alone (0 without codes)."""
        return _slab_nbytes(self._codes) + _slab_nbytes(self._dcodes)

    @property
    def code_overhead_nbytes(self) -> int:
        """Bytes of the SQ8 side tables (error norms + dequant params)."""
        tables = [
            *self._code_err, *self._dcode_err, self._code_lo, self._code_scale
        ]
        return int(sum(arr.nbytes for arr in tables if arr is not None))

    def gather(
        self,
        shard: int,
        lists: np.ndarray,
        exclude: np.ndarray | None = None,
    ) -> CandidatePart:
        """Candidate ids, row indices and norms for a shard's probed lists.

        Index work only: no candidate row is copied. Candidates come
        back list-by-list in packed (insertion) order, base rows before
        delta rows — a different order than an ascending-id gather,
        which is harmless because heap retention is order-independent.

        Args:
            shard: vector shard to gather from.
            lists: probed inverted-list ids living in this shard, in
                probe order.
            exclude: optional array of the few global ids to drop (the
                query's already-prewarmed candidates). When they are
                the head of the first list's base range — what
                :meth:`list_head` gives with no tombstone in it — that
                head is cut off the range; otherwise they are masked,
                at O(candidates + len(exclude)), never O(ntotal).

        Returns:
            A :class:`CandidatePart` whose ``slabs`` are the shard's
            float32 slabs, with the matching per-slice ``norms`` table
            (None for L2).
        """
        return self._part(shard, *self._candidates(shard, lists, exclude))

    def _part(
        self, shard: int, ids, local, base_sel, delta_sel, codes=False
    ) -> CandidatePart:
        """``shard``'s candidates ``ids`` at ``local`` (side-table rows
        ``base_sel`` / ``delta_sel``) as :meth:`gather` or, with
        ``codes``, :meth:`gather_sq8` returns them."""
        rows = self._slabs(self._rows, self._drows, shard, delta_sel)
        norms = _take_both(
            self._norms[shard], base_sel, self._dnorms[shard], delta_sel
        )
        if not codes:
            return CandidatePart(ids, local, rows, norms)
        return CandidatePart(
            ids, local,
            self._slabs(self._codes, self._dcodes, shard, delta_sel), norms,
            _take_both(
                self._code_err[shard], base_sel,
                self._dcode_err[shard], delta_sel,
            ),
            rows,
        )

    def _slabs(self, base, delta, shard: int, delta_sel) -> ShardSlabs:
        """Handle on one shard's slabs; the delta side is attached only
        when the part holds delta rows, so the common all-base part
        takes the single-``np.take`` path."""
        return ShardSlabs(
            base[shard],
            None if delta_sel is None else [d.view for d in delta[shard]],
        )

    def _candidates(self, shard: int, lists, exclude):
        """``(ids, local, base_sel, delta_sel)`` of a shard's candidates.

        ``local`` indexes the shard's slabs (delta rows offset by the
        base row count); the two selections index the base and delta
        side tables and are None where that side has no candidate.
        """
        base_sel, ids, exclude = self._base_candidates(shard, lists, exclude)
        delta_sel, dids = self._delta_candidates(shard, lists, exclude)
        if base_sel is None and delta_sel is None:
            return (
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp),
                None, None,
            )
        dlocal = None
        if delta_sel is not None:
            dlocal = delta_sel + self._ids[shard].size
        return (
            _merged(ids, dids), _merged(base_sel, dlocal), base_sel, delta_sel
        )

    def _base_candidates(
        self,
        shard: int,
        lists: np.ndarray,
        exclude: np.ndarray | None,
    ) -> "tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]":
        """Masked (local indices, global ids) of base-block candidates,
        and the part of ``exclude`` still to drop from the delta rows.

        The probed lists' base ranges, read in one vectorized pass. A
        query's prewarmed ids are the head of its nearest list's gather
        (:meth:`list_head`), which the caller lists first: where that
        list's base range starts with exactly ``exclude``, the head is
        cut off the range and nothing is left to exclude. Otherwise (a
        tombstone inside the head, or a head that reaches into delta
        rows) ``exclude`` is dropped by the candidate mask, as a
        tombstone is.
        """
        lists = np.asarray(lists, dtype=np.int64)
        starts = self._list_start[lists]
        sizes = self._list_stop[lists] - starts
        shard_ids = self._ids[shard]
        if exclude is not None and exclude.size and sizes.size:
            head = shard_ids[starts[0] : starts[0] + min(sizes[0], exclude.size)]
            if np.array_equal(head, exclude):
                starts[0] += exclude.size  # both are fresh arrays
                sizes[0] -= exclude.size
                exclude = None
        total = int(sizes.sum())
        if total == 0:
            return None, None, exclude
        # The concatenated ranges: every row's offset from its list's
        # first candidate is its place in ``local`` minus the sizes
        # before its list.
        local = np.arange(total, dtype=np.intp)
        local += np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
        ids = shard_ids[local]
        mask = self._candidate_mask(ids, exclude)
        if mask is not None:
            local = local[mask]
            ids = ids[mask]
            if ids.size == 0:
                return None, None, exclude
        return local, ids, exclude

    def _delta_candidates(
        self,
        shard: int,
        lists: np.ndarray,
        exclude: np.ndarray | None,
    ) -> "tuple[np.ndarray | None, np.ndarray | None]":
        """Masked (delta indices, global ids) of delta-segment candidates.

        Delta rows are appended in arrival order regardless of list;
        membership is a linear pass over the per-shard list tags via a
        probed-list lookup table — fine, because compaction bounds the
        delta size to a fraction of the base.
        """
        dlists = self._dlists[shard].view
        if dlists.size == 0:
            return None, None
        probed = np.zeros(self._list_start.size, dtype=bool)
        probed[np.asarray(lists, dtype=np.int64)] = True
        sel = np.flatnonzero(probed[dlists])
        if sel.size == 0:
            return None, None
        ids = self._dids[shard].view[sel]
        mask = self._candidate_mask(ids, exclude)
        if mask is not None:
            sel = sel[mask]
            ids = ids[mask]
            if ids.size == 0:
                return None, None
        return sel, ids

    def _candidate_mask(
        self, ids: np.ndarray, exclude: np.ndarray | None
    ) -> np.ndarray | None:
        """Combined exclusion/tombstone mask, or None to keep all."""
        mask = None
        if exclude is not None and exclude.size:
            mask = _not_among(ids, exclude)
        if self._tombstones_since:
            live = ~self._tombstone[ids]
            mask = live if mask is None else mask & live
        if mask is None or mask.all():
            return None
        return mask

    def list_head(
        self, shard: int, list_id: int, n: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        """The first ``n`` candidates :meth:`gather` returns for one
        list, as ``(ids, rows)`` with full-width float32 rows (copies).

        These are ``index.list_members(list_id)[:n]`` of the index the
        layout reflects: the base packs a list's live members in
        insertion order and the delta segment appends later ones in
        arrival order. With no tombstone since the build, a head the
        base range holds is that range's start.
        """
        start, stop = self._list_start[list_id], self._list_stop[list_id]
        if not self._tombstones_since and (
            stop - start >= n or not len(self._dids[shard])
        ):
            stop = min(stop, start + n)
            rows = [slab[start:stop] for slab in self._rows[shard]]
            return (
                self._ids[shard][start:stop].copy(),
                np.concatenate(rows, axis=1),
            )
        ids, local, _, delta_sel = self._candidates(
            shard, np.array([list_id]), None
        )
        slabs = self._slabs(self._rows, self._drows, shard, delta_sel)
        return ids[:n], slabs.rows(local[:n])

    def _list_rows(
        self,
        shard: int,
        member_lists: "list[np.ndarray]",
        excludes: "list[tuple[int, np.ndarray]]",
        codes: bool = False,
    ) -> "tuple[list[_ListRows], list[CandidatePart]]":
        """A shard-group's candidates read list by list: what the fused
        scan's list-major first slice scans in place — float32 rows, or
        with ``codes`` SQ8 codes and their error norms.

        Index work only, and per *distinct* probed list rather than per
        (member, list) pair: each list's base range, id and norm views,
        and one row mask (:meth:`gather`'s tombstone term).
        Prewarm exclusion is the one per-member term. A member's
        prewarmed ids are the head of its nearest probed list
        (:meth:`list_head`), so it applies to that one block only.

        Args:
            member_lists: per member, its probed lists in ``shard``.
            excludes: per member, ``(nearest list, prewarmed ids)``.
            codes: SQ8: blocks with error-norm views, and parts as
                :meth:`gather_sq8` returns them.

        Returns:
            ``(blocks, deltas)``: one :class:`_ListRows` per distinct
            non-empty probed list, and per member a
            :class:`CandidatePart` of its delta-segment candidates
            (often empty). Delta rows are not list-contiguous, so they
            are gathered per member as :meth:`gather` gathers them.
        """
        pairs = np.concatenate(member_lists).astype(np.int64)
        owners = np.repeat(
            np.arange(len(member_lists), dtype=np.intp),
            [len(lists) for lists in member_lists],
        )
        order = np.argsort(pairs, kind="stable")
        pairs, owners = pairs[order], owners[order]
        cuts = (np.flatnonzero(np.diff(pairs)) + 1).tolist()
        nearest: dict = {}
        for member, (list_id, prewarmed) in enumerate(excludes):
            if prewarmed.size:
                nearest.setdefault(int(list_id), []).append(
                    (member, prewarmed)
                )
        shard_ids, norms = self._ids[shard], self._norms[shard]
        code_err = self._code_err[shard] if codes else None
        blocks = []
        for lo, hi in zip([0, *cuts], [*cuts, pairs.size]):
            list_id = int(pairs[lo])
            start = int(self._list_start[list_id])
            stop = int(self._list_stop[list_id])
            if stop == start:
                continue
            ids, members = shard_ids[start:stop], owners[lo:hi]
            live = self._candidate_mask(ids, None)
            counts = np.full(
                members.size,
                ids.size if live is None else np.count_nonzero(live),
                dtype=np.int64,
            )
            # Members whose nearest list this is prewarmed its head, so
            # they share their prewarmed ids: one exclusion mask per
            # distinct set.
            sets: dict = {}
            for member, prewarmed in nearest.get(list_id, ()):
                cols = sets.setdefault(prewarmed.tobytes(), [prewarmed])
                cols.append(int(np.searchsorted(members, member)))
            drops = []
            for prewarmed, *cols in sets.values():
                keep, cols = _not_among(ids, prewarmed), np.array(cols)
                counts[cols] = np.count_nonzero(
                    keep if live is None else keep & live
                )
                drops.append((cols, keep))
            blocks.append(_ListRows(
                start, ids, None if norms is None else norms[start:stop],
                members, live, tuple(drops), counts,
                None if code_err is None else code_err[start:stop],
            ))
        deltas = []
        for lists, (_, exclude) in zip(member_lists, excludes):
            sel, dids = self._delta_candidates(shard, lists, exclude)
            local = np.empty(0, dtype=np.intp)
            if sel is None:
                dids = np.empty(0, dtype=np.int64)
            else:
                local = sel + shard_ids.size
            deltas.append(self._part(shard, dids, local, None, sel, codes))
        return blocks, deltas

    def gather_sq8(
        self,
        shard: int,
        lists: np.ndarray,
        exclude: np.ndarray | None = None,
    ) -> CandidatePart:
        """The SQ8 sibling of :meth:`gather`, same arguments.

        The scan reads the compact uint8 code slabs, and only the few
        candidates that survive pruning ever touch float32 — via
        ``exact.take(block, local)`` at re-rank time.

        Returns:
            A fully populated :class:`CandidatePart`: ``slabs`` are the
            shard's code slabs, ``err`` the float32 error norms and
            ``exact`` its float32 slabs.
        """
        if not self.has_codes:
            raise RuntimeError("layout was packed without SQ8 codes")
        return self._part(
            shard, *self._candidates(shard, lists, exclude), codes=True
        )


class SharedShardPackedBase(ShardPackedBase):
    """A :class:`ShardPackedBase` whose arrays live in shared memory.

    The process backend's zero-copy data plane: the parent packs every
    shard's row slabs / ids / norms into **one**
    :class:`multiprocessing.shared_memory.SharedMemory` segment
    (:meth:`from_packed`), ships only the tiny :meth:`manifest` —
    segment name plus per-array ``(offset, shape, dtype)`` records —
    to each worker, and workers :meth:`attach` as numpy views over the
    same physical pages. No vector bytes are ever pickled or copied
    across the process boundary; staleness is keyed by the same
    ``(version, ntotal)`` pair as the in-process packed cache.

    Lifecycle: the creating process calls :meth:`unlink` (usually via
    the owning backend's ``close()``) exactly once; every process —
    creator and attachers — calls :meth:`close` to drop its mapping.
    The segment persists until the last mapping closes, so the parent
    may safely unlink a stale layout while workers still scan it.
    A ``weakref.finalize`` guard on owner layouts frees the segment
    at garbage collection or interpreter exit even when ``unlink``
    was never called, so a crashed or careless caller cannot leak
    ``/dev/shm`` pages for the life of the machine.
    """

    def __init__(
        self, bound, meta, plan=None, shm=None, spec=None, owner=False
    ) -> None:
        super().__init__(bound, meta, plan)
        self._shm = shm
        self._owner = owner
        self._spec: dict = dict(spec or {})
        self._finalizer = (
            weakref.finalize(self, _release_segment, shm, True)
            if owner and shm is not None
            else None
        )
        # Overlay segment: a small, frequently re-published mirror of
        # the delta segments + tombstone mask. The base segment above
        # is immutable for the life of its generation; only this
        # overlay moves when mutations are absorbed.
        self._overlay_shm = None
        self._overlay_spec: dict = {}
        self._overlay_version = -1
        self._overlay_finalizer = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_packed(cls, packed: ShardPackedBase) -> "SharedShardPackedBase":
        """Re-home an existing packed layout into one shared segment."""
        shm, spec = _write_segment(_named_arrays(packed, _BASE_FAMILIES))
        layout = cls(
            _bind(
                _BASE_FAMILIES, _segment_views(shm.buf, spec),
                packed.n_shards, packed.n_blocks,
            ),
            packed._meta(), packed._plan, shm=shm, spec=spec, owner=True,
        )
        # Take over the source layout's delta state wholesale: the
        # owner keeps deltas in private (host-memory) growth buffers —
        # they stay small by construction, bounded by the compaction
        # ratio — and mirrors them into the overlay segment on
        # :meth:`sync_overlay`.
        for name, *_ in _OVERLAY_FAMILIES:
            setattr(layout, "_" + name, getattr(packed, "_" + name))
        return layout

    @classmethod
    def build(cls, index, plan, **options) -> "SharedShardPackedBase":
        """Pack straight into shared memory: :meth:`ShardPackedBase.
        build` with the same arguments, then :meth:`from_packed`."""
        return cls.from_packed(ShardPackedBase.build(index, plan, **options))

    # -- cross-process plumbing ----------------------------------------

    def manifest(self) -> dict:
        """Picklable description a worker passes to :meth:`attach`.

        ``shm_name`` is the immutable base generation's segment;
        ``overlay`` (None until the first post-build mutation) names
        the current delta/tombstone mirror. Workers key their cached
        attachment on the pair of names and, when either moves, close
        and re-attach both segments — a re-``mmap`` of pages already
        resident (about 0.1 ms), never a copy.
        """
        if self._shm is None:
            raise RuntimeError("layout is not backed by shared memory")
        overlay = None
        if self._overlay_shm is not None:
            overlay = {
                "shm_name": self._overlay_shm.name,
                "spec": dict(self._overlay_spec),
                "delta_version": self._overlay_version,
            }
        return {
            **self._meta(),
            "shm_name": self._shm.name,
            "n_shards": self.n_shards,
            "n_blocks": self.n_blocks,
            "spec": dict(self._spec),
            "overlay": overlay,
        }

    def sync_overlay(self) -> bool:
        """Publish the current deltas + tombstones as a fresh overlay.

        No-op while the overlay already mirrors ``delta_version``.
        Otherwise writes all delta arrays and the tombstone mask into
        a new (small) shared segment and retires the previous one —
        workers still scanning it keep valid mappings until they
        close; new dispatches attach the replacement. The base segment
        is untouched, so a delta-only mutation batch never re-homes
        the bulk of the layout.

        Returns:
            True when a new overlay segment was published.
        """
        if (
            self._overlay_shm is not None
            and self._overlay_version == self.delta_version
        ):
            return False
        shm, spec = _write_segment(_named_arrays(self, _OVERLAY_FAMILIES))
        self._retire_overlay()
        self._overlay_shm = shm
        self._overlay_spec = spec
        self._overlay_version = self.delta_version
        if self._owner:
            self._overlay_finalizer = weakref.finalize(
                self, _release_segment, shm, True
            )
        return True

    def _retire_overlay(self) -> None:
        shm, self._overlay_shm = self._overlay_shm, None
        finalizer, self._overlay_finalizer = self._overlay_finalizer, None
        if finalizer is not None:
            finalizer.detach()
        self._overlay_spec = {}
        self._overlay_version = -1
        if shm is not None:
            _release_segment(shm, unlink=self._owner)

    @classmethod
    def attach(cls, manifest: dict) -> "SharedShardPackedBase":
        """Map an existing segment read-only-by-convention, zero-copy."""
        shm = _attach_shm(manifest["shm_name"])
        spec = manifest["spec"]
        layout = cls(
            _bind(
                _BASE_FAMILIES, _segment_views(shm.buf, spec),
                manifest["n_shards"], manifest["n_blocks"],
            ),
            manifest, shm=shm, spec=spec,
        )
        overlay = manifest["overlay"]
        if overlay is not None:
            layout._attach_overlay(overlay)
        return layout

    def _attach_overlay(self, overlay: dict) -> None:
        """Map the delta/tombstone overlay alongside the base views."""
        shm = _attach_shm(overlay["shm_name"])
        self._hold(
            _bind(
                _OVERLAY_FAMILIES,
                _segment_views(shm.buf, overlay["spec"]),
                self.n_shards, self.n_blocks, wrap=GrowableArray.wrap,
            )
        )
        self._overlay_shm = shm
        self._overlay_spec = dict(overlay["spec"])
        self._overlay_version = overlay["delta_version"]

    # -- lifecycle ------------------------------------------------------

    @property
    def shm_name(self) -> str | None:
        return None if self._shm is None else self._shm.name

    def close(self) -> None:
        """Drop this process's mappings (views become invalid)."""
        shm, self._shm = self._shm, None
        # Binding no shards to no arrays releases every buffer ref.
        self._hold(_bind(_BASE_FAMILIES + _OVERLAY_FAMILIES, {}, 0, 0))
        self._base_nbytes = 0
        self._retire_overlay()
        if shm is not None:
            _release_segment(shm, unlink=False)

    def unlink(self) -> None:
        """Free the segments (creator only); also closes the mappings."""
        self.close()  # retires the overlay (unlinking it when owner)
        self._owner = False
        finalizer, self._finalizer = self._finalizer, None
        if finalizer is not None:
            # The owner's guard, run now rather than at collection: it
            # still holds the base segment after close() has let go.
            finalizer()
