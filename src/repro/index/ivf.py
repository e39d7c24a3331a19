"""IVF-Flat inverted-file index.

The cluster-based index family the paper builds on (Sections 2.1, 6.1):
k-means partitions the base vectors into ``nlist`` inverted lists; a
query scans the ``nprobe`` lists whose centroids are nearest, computing
exact distances within them. All HARMONY variants share one trained
IVF structure — only the *placement* of its lists/dimensions differs.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from repro.distance.kernels import (
    pairwise_inner_product,
    pairwise_squared_l2,
    top_k_smallest,
)
from repro.distance.metrics import Metric, normalize_rows, resolve_metric
from repro.index.kmeans import KMeans
from repro.util.growable import GrowableArray

#: Process-wide source of index identities. Every constructed index —
#: including one rebuilt by ``load()`` — gets a fresh uid, so derived
#: caches (packed layouts, shm segments) can never alias across index
#: *objects* even when their ``(version, ntotal)`` counters collide
#: (e.g. a reloaded index whose version restarted at 0).
_UIDS = itertools.count(1)


def saved_path(path):
    """The file a ``save(path)`` wrote: ``np.savez`` appends ``.npz`` to
    a name that lacks it, so ``load(path)`` looks there too (a file
    that exists under the exact name given still wins)."""
    if isinstance(path, (str, os.PathLike)):
        name = os.fspath(path)
        if not name.endswith(".npz") and not os.path.exists(name):
            return name + ".npz"
    return path


class _InvertedLists:
    """Per-list id storage behind amortized-doubling growth buffers.

    Looks like the ``list[np.ndarray]`` it replaces — item access
    returns the live id view, item assignment adopts a fresh array
    (the persistence loaders do this), iteration yields views — while
    ``append`` extends a single list without copying the others.
    """

    __slots__ = ("_bufs",)

    def __init__(self, nlist: int) -> None:
        self._bufs = [
            GrowableArray(dtype=np.int64) for _ in range(nlist)
        ]

    def __len__(self) -> int:
        return len(self._bufs)

    def __getitem__(self, list_id: int) -> np.ndarray:
        return self._bufs[list_id].view

    def __setitem__(self, list_id: int, ids: np.ndarray) -> None:
        self._bufs[list_id] = GrowableArray.adopt(
            np.asarray(ids, dtype=np.int64)
        )

    def __iter__(self):
        return (buf.view for buf in self._bufs)

    def append(self, list_id: int, ids: np.ndarray) -> None:
        self._bufs[list_id].append(ids)

    @property
    def bytes_copied(self) -> int:
        return sum(buf.bytes_copied for buf in self._bufs)


@dataclass(frozen=True)
class IVFBuildStats:
    """Element counts from index construction, for simulated timing.

    Attributes:
        train_elements: multiply-accumulate count during k-means.
        add_elements: count during base-to-centroid assignment.
    """

    train_elements: int
    add_elements: int


class IVFFlatIndex:
    """Inverted-file index with exact in-list distances.

    Args:
        dim: vector dimensionality.
        nlist: number of inverted lists (k-means clusters).
        metric: ``"l2"``, ``"ip"`` or ``"cosine"``. Clustering always
            uses L2 geometry (as Faiss does); only candidate scoring
            changes with the metric.
        seed: RNG seed for training.
        max_iterations: k-means iteration cap.
    """

    def __init__(
        self,
        dim: int,
        nlist: int,
        metric: "Metric | str" = Metric.L2,
        seed: int = 0,
        max_iterations: int = 20,
    ) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if nlist <= 0:
            raise ValueError(f"nlist must be positive, got {nlist}")
        self.dim = dim
        self.nlist = nlist
        self.metric = resolve_metric(metric)
        self.seed = seed
        self.max_iterations = max_iterations
        self._centroids: np.ndarray | None = None
        self._base_buf = GrowableArray(row_shape=(dim,), dtype=np.float32)
        self._list_ids = _InvertedLists(nlist)
        self._deleted_buf = GrowableArray(dtype=bool)
        self._labels_buf = GrowableArray(dtype=np.int64)
        self._assign_buf = GrowableArray(dtype=np.int64)
        self._train_elements = 0
        self._add_elements = 0
        self._version = 0
        self._uid = next(_UIDS)

    @property
    def version(self) -> int:
        """Mutation counter: bumps on every add and effective delete.

        Derived caches (packed shard layouts, per-slice norm tables)
        compare this against their build-time value to detect
        staleness without content hashing.
        """
        return self._version

    @property
    def uid(self) -> int:
        """Process-unique index identity, fresh on every construction.

        A version counter alone cannot distinguish "this index
        mutated" from "a different index whose counter happens to
        match" — notably an index reloaded from disk restarts at
        version 0 with the same ntotal. Caches key on ``(uid,
        version)`` so a reloaded index can never alias a stale layout.
        """
        return self._uid

    # Storage properties: the private names predate the growth
    # buffers, and the persistence loaders assign them wholesale, so
    # they stay as read/write views over the buffers.

    @property
    def _base(self) -> np.ndarray:
        return self._base_buf.view

    @_base.setter
    def _base(self, array: np.ndarray) -> None:
        self._base_buf = GrowableArray.adopt(
            np.asarray(array, dtype=np.float32)
        )

    @property
    def _deleted(self) -> np.ndarray:
        return self._deleted_buf.view

    @_deleted.setter
    def _deleted(self, array: np.ndarray) -> None:
        self._deleted_buf = GrowableArray.adopt(np.asarray(array, dtype=bool))

    @property
    def _labels(self) -> np.ndarray:
        return self._labels_buf.view

    @_labels.setter
    def _labels(self, array: np.ndarray) -> None:
        self._labels_buf = GrowableArray.adopt(
            np.asarray(array, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    @property
    def ntotal(self) -> int:
        return self._base.shape[0]

    @property
    def centroids(self) -> np.ndarray:
        if self._centroids is None:
            raise RuntimeError("index is not trained")
        return self._centroids

    @property
    def base(self) -> np.ndarray:
        """Full base matrix in insertion order."""
        return self._base

    def train(self, data: np.ndarray) -> None:
        """Learn the ``nlist`` centroids from ``data`` (k-means)."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float32))
        if data.shape[1] != self.dim:
            raise ValueError(
                f"expected dim {self.dim}, got training data of dim {data.shape[1]}"
            )
        if self.metric is Metric.COSINE:
            data = normalize_rows(data)
        kmeans = KMeans(
            n_clusters=self.nlist,
            max_iterations=self.max_iterations,
            seed=self.seed,
        )
        result = kmeans.fit(data)
        self._centroids = result.centroids
        self._train_elements = result.elements_processed

    def add(
        self, vectors: np.ndarray, labels: np.ndarray | None = None
    ) -> None:
        """Assign ``vectors`` to their nearest centroid's inverted list.

        Args:
            vectors: ``(n, dim)`` batch to index.
            labels: optional per-vector int64 metadata label (e.g. a
                tenant, category, or shard key) usable as a search
                filter; defaults to 0.
        """
        if not self.is_trained:
            raise RuntimeError("train() must be called before add()")
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected dim {self.dim}, got vectors of dim {vectors.shape[1]}"
            )
        if labels is None:
            labels = np.zeros(vectors.shape[0], dtype=np.int64)
        else:
            labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
            if labels.shape != (vectors.shape[0],):
                raise ValueError(
                    f"need one label per vector, got {labels.shape} for "
                    f"{vectors.shape[0]} vectors"
                )
        if self.metric is Metric.COSINE:
            vectors = normalize_rows(vectors)
        first_id = self.ntotal
        distances = pairwise_squared_l2(vectors, self._centroids)
        self._add_elements += vectors.shape[0] * self.nlist * self.dim
        assignment = np.argmin(distances, axis=1).astype(np.int64)
        self._assignments()  # materialize before ntotal moves
        self._base_buf.append(vectors)
        self._deleted_buf.append(np.zeros(vectors.shape[0], dtype=bool))
        self._labels_buf.append(labels)
        self._assign_buf.append(assignment)
        ids = np.arange(first_id, first_id + vectors.shape[0], dtype=np.int64)
        # Only the lists that actually received rows are touched;
        # each append is amortized O(batch), not O(list length).
        for list_id in np.unique(assignment):
            self._list_ids.append(int(list_id), ids[assignment == list_id])
        self._version += 1

    def build_stats(self) -> IVFBuildStats:
        """Element counts accumulated so far by train/add."""
        return IVFBuildStats(
            train_elements=self._train_elements,
            add_elements=self._add_elements,
        )

    # ------------------------------------------------------------------
    # Deletion (tombstones)
    # ------------------------------------------------------------------

    @property
    def nlive(self) -> int:
        """Vectors that are stored and not deleted."""
        return int(self.ntotal - self._deleted.sum())

    def remove_ids(self, ids: np.ndarray) -> int:
        """Tombstone the given vector ids.

        Deleted vectors stay in storage (ids are never reused) but are
        excluded from every list/candidate accessor, so they can never
        appear in search results on any engine.

        Returns:
            Number of vectors newly deleted (already-deleted ids are
            counted zero; duplicates are fine).

        Raises:
            IndexError: for ids outside ``[0, ntotal)``.
        """
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        if ids.size == 0:
            return 0
        if ids.min() < 0 or ids.max() >= self.ntotal:
            raise IndexError(
                f"ids must be in [0, {self.ntotal}), got range "
                f"[{ids.min()}, {ids.max()}]"
            )
        before = int(self._deleted.sum())
        self._deleted[ids] = True
        removed = int(self._deleted.sum()) - before
        if removed:
            self._version += 1
        return removed

    def is_deleted(self, ids: np.ndarray) -> np.ndarray:
        """Boolean deletion flags for the given ids.

        Raises:
            IndexError: for ids outside ``[0, ntotal)`` — like
                :meth:`remove_ids`, instead of letting negative ids
                silently wrap to valid rows.
        """
        return self._deleted[self._validate_ids(ids)]

    @property
    def deleted_mask(self) -> np.ndarray:
        """Tombstone flags for every stored id (read-only view)."""
        return self._deleted

    def _validate_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        if ids.size and (ids.min() < 0 or ids.max() >= self.ntotal):
            raise IndexError(
                f"ids must be in [0, {self.ntotal}), got range "
                f"[{ids.min()}, {ids.max()}]"
            )
        return ids

    # ------------------------------------------------------------------
    # Metadata labels / filtering
    # ------------------------------------------------------------------

    def labels_of(self, ids: np.ndarray) -> np.ndarray:
        """Metadata labels of the given ids.

        Raises:
            IndexError: for ids outside ``[0, ntotal)``.
        """
        return self._labels[self._validate_ids(ids)]

    def allowed_mask(
        self, filter_labels: "np.ndarray | list[int] | tuple[int, ...] | None"
    ) -> np.ndarray | None:
        """Per-id admissibility mask for a label filter.

        Returns None when ``filter_labels`` is None (no filtering);
        otherwise a boolean array over all ids, True where the vector's
        label is in the filter set.
        """
        if filter_labels is None:
            return None
        wanted = np.atleast_1d(np.asarray(filter_labels, dtype=np.int64))
        if wanted.size == 0:
            raise ValueError("filter_labels must be non-empty when given")
        return np.isin(self._labels, wanted)

    # ------------------------------------------------------------------
    # Introspection used by the distributed engines
    # ------------------------------------------------------------------

    def _assignments(self) -> np.ndarray:
        """Per-row inverted-list assignment, shape ``(ntotal,)``.

        Maintained incrementally by :meth:`add`; rebuilt from the
        inverted lists when a persistence loader assigned storage
        wholesale (the buffer length then lags ``ntotal``).
        """
        if len(self._assign_buf) != self.ntotal:
            assignment = np.full(self.ntotal, -1, dtype=np.int64)
            for list_id, ids in enumerate(self._list_ids):
                assignment[ids] = list_id
            self._assign_buf = GrowableArray.adopt(assignment)
        return self._assign_buf.view

    def assignment_of(self, ids: np.ndarray) -> np.ndarray:
        """Inverted-list id of each given vector id.

        Incremental layout maintenance uses this to route appended
        rows to their vector shard without re-walking every list.
        """
        return self._assignments()[self._validate_ids(ids)]

    @property
    def mutation_bytes_copied(self) -> int:
        """Total bytes moved by storage reallocations since creation.

        Amortized-doubling growth keeps this linear in the rows ever
        added; the pre-fix ``vstack``-per-add path was quadratic. A
        regression test pins the bound.
        """
        return int(
            self._base_buf.bytes_copied
            + self._deleted_buf.bytes_copied
            + self._labels_buf.bytes_copied
            + self._assign_buf.bytes_copied
            + self._list_ids.bytes_copied
        )

    def list_members(self, list_id: int) -> np.ndarray:
        """Live (non-deleted) vector ids in inverted list ``list_id``."""
        if not 0 <= list_id < self.nlist:
            raise IndexError(f"list_id {list_id} out of range [0, {self.nlist})")
        ids = self._list_ids[list_id]
        if not self._deleted.any():
            return ids
        return ids[~self._deleted[ids]]

    def list_sizes(self) -> np.ndarray:
        """Live length of every inverted list, shape ``(nlist,)``."""
        if not self._deleted.any():
            return np.array(
                [ids.size for ids in self._list_ids], dtype=np.int64
            )
        return np.array(
            [self.list_members(l).size for l in range(self.nlist)],
            dtype=np.int64,
        )

    def probe(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        """The ``nprobe`` nearest-centroid list ids per query.

        Returns an ``(nq, nprobe)`` int array ordered by ascending
        centroid distance (ties broken by list id). This is the
        "identify cluster centroids" step of the paper's Figure 4.
        """
        if not self.is_trained:
            raise RuntimeError("index is not trained")
        if nprobe <= 0:
            raise ValueError(f"nprobe must be positive, got {nprobe}")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if queries.shape[1] != self.dim:
            raise ValueError(
                f"expected dim {self.dim}, got queries of dim {queries.shape[1]}"
            )
        if self.metric is Metric.COSINE:
            queries = normalize_rows(queries)
        nprobe = min(nprobe, self.nlist)
        distances = pairwise_squared_l2(queries, self._centroids)
        out = np.empty((queries.shape[0], nprobe), dtype=np.int64)
        for i in range(queries.shape[0]):
            ids, _ = top_k_smallest(distances[i], nprobe)
            out[i] = ids
        return out

    def candidates(
        self,
        probe_lists: np.ndarray,
        allowed: np.ndarray | None = None,
    ) -> np.ndarray:
        """Union of live member ids of the probed lists, ascending.

        Args:
            probe_lists: inverted-list ids to gather from.
            allowed: optional per-id boolean mask (see
                :meth:`allowed_mask`); excluded ids are dropped.
        """
        parts = [self.list_members(int(lid)) for lid in probe_lists]
        if not parts:
            return np.empty(0, dtype=np.int64)
        ids = np.sort(np.concatenate(parts))
        if allowed is not None:
            ids = ids[allowed[ids]]
        return ids

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int = 1,
        filter_labels: "np.ndarray | list[int] | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single-node IVF search.

        Scans the ``nprobe`` nearest lists exhaustively and returns the
        top ``k`` candidates per query, optionally restricted to
        vectors whose metadata label is in ``filter_labels``.

        Returns:
            ``(distances, ids)`` of shape ``(nq, k)``; rows are padded
            with ``(inf, -1)`` when fewer than ``k`` candidates exist.
            Distance convention matches :class:`FlatIndex` (L2 squared
            ascending; negated similarity for IP/cosine).
        """
        if self.ntotal == 0:
            raise RuntimeError("search on empty index")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if self.metric is Metric.COSINE:
            queries = normalize_rows(queries)
        allowed = self.allowed_mask(filter_labels)
        probes = self.probe(queries, nprobe)
        nq = queries.shape[0]
        out_dist = np.full((nq, k), np.inf, dtype=np.float64)
        out_ids = np.full((nq, k), -1, dtype=np.int64)
        for i in range(nq):
            cand = self.candidates(probes[i], allowed=allowed)
            if cand.size == 0:
                continue
            block = self._base[cand]
            if self.metric is Metric.L2:
                scores = pairwise_squared_l2(queries[i : i + 1], block)[0]
            else:
                scores = -pairwise_inner_product(queries[i : i + 1], block)[0]
            take = min(k, cand.size)
            # Tie-break on global id for determinism across engines.
            order = np.lexsort((cand, scores))[:take]
            out_ids[i, :take] = cand[order]
            out_dist[i, :take] = scores[order]
        return out_dist, out_ids

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def state_arrays(self) -> "dict[str, np.ndarray]":
        """Everything a file needs to rebuild this index, as arrays.

        The one writer of index state: :meth:`save` stores exactly
        these, and ``HarmonyDB.save`` stores them beside its config and
        plan. :meth:`restore_state` is the one reader.
        """
        if not self.is_trained:
            raise RuntimeError("cannot save an untrained index")
        return {
            "base": self._base,
            "centroids": self._centroids,
            "assignment": self._assignments(),
            "deleted": self._deleted,
            "labels": self._labels,
            "meta": np.array(
                [self.dim, self.nlist, self.seed, self.max_iterations,
                 self._train_elements, self._add_elements],
                dtype=np.int64,
            ),
            "metric": np.array(self.metric.value),
        }

    def restore_state(self, data) -> None:
        """Adopt :meth:`state_arrays` output (a mapping or an open
        ``.npz``) into this index, constructed with the same ``dim`` /
        ``nlist`` / ``metric``. A file written before the build-stat
        counters were stored leaves them at zero."""
        if "meta" in data:
            self._train_elements = int(data["meta"][4])
            self._add_elements = int(data["meta"][5])
        self._centroids = data["centroids"]
        self._base = data["base"]
        self._deleted = data["deleted"]
        self._labels = data["labels"]
        assignment = data["assignment"]
        for list_id in range(self.nlist):
            # Ids within a list are ascending == insertion order.
            self._list_ids[list_id] = np.flatnonzero(
                assignment == list_id
            ).astype(np.int64)

    def save(self, path: "str | object") -> None:
        """Serialize the index to a ``.npz`` file.

        Stores base vectors, centroids, per-vector list assignment,
        tombstones and metadata; :meth:`load` reconstructs an index
        that returns byte-identical search results.
        """
        np.savez_compressed(path, **self.state_arrays())

    @classmethod
    def load(cls, path: "str | object") -> "IVFFlatIndex":
        """Reconstruct an index saved with :meth:`save`."""
        with np.load(saved_path(path), allow_pickle=False) as data:
            meta = data["meta"]
            index = cls(
                dim=int(meta[0]),
                nlist=int(meta[1]),
                metric=str(data["metric"]),
                seed=int(meta[2]),
                max_iterations=int(meta[3]),
            )
            index.restore_state(data)
        return index

    def reconstruct(self, ids: np.ndarray) -> np.ndarray:
        """Stored vectors for the given ids (cosine returns normalized
        rows, matching what distances were computed against).

        Tombstoned ids reconstruct too — deletion hides vectors from
        search, it does not reclaim their storage.
        """
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        if ids.size and (ids.min() < 0 or ids.max() >= self.ntotal):
            raise IndexError(f"ids must be in [0, {self.ntotal})")
        return self._base[ids].copy()

    def range_search(
        self,
        queries: np.ndarray,
        radius: float,
        nprobe: int = 1,
        filter_labels: "np.ndarray | list[int] | None" = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """All candidates within a score radius, per query.

        Scores follow the library convention (squared L2, or negated
        similarity), so ``radius`` is a squared-L2 distance for L2 and
        ``-min_similarity`` for IP/cosine. Like :meth:`search`, only
        the ``nprobe`` nearest lists are scanned — standard IVF range
        semantics.

        Returns:
            One ``(ids, scores)`` pair per query, ids ascending.
        """
        if self.ntotal == 0:
            raise RuntimeError("range_search on empty index")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if self.metric is Metric.COSINE:
            queries = normalize_rows(queries)
        allowed = self.allowed_mask(filter_labels)
        probes = self.probe(queries, nprobe)
        out: list[tuple[np.ndarray, np.ndarray]] = []
        for i in range(queries.shape[0]):
            cand = self.candidates(probes[i], allowed=allowed)
            if cand.size == 0:
                out.append(
                    (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
                )
                continue
            block = self._base[cand]
            if self.metric is Metric.L2:
                scores = pairwise_squared_l2(queries[i : i + 1], block)[0]
            else:
                scores = -pairwise_inner_product(queries[i : i + 1], block)[0]
            keep = scores <= radius
            out.append((cand[keep], scores[keep]))
        return out

    def memory_report(self) -> dict[str, int]:
        """Byte counts of the index components (paper Table 4 substrate)."""
        if self._centroids is None:
            centroid_bytes = 0
        else:
            centroid_bytes = int(self._centroids.nbytes)
        id_bytes = int(sum(ids.nbytes for ids in self._list_ids))
        # nbytes of the logical views, so the report tracks stored
        # rows, not growth-buffer capacity slack.
        return {
            "base_vectors": int(self._base.nbytes),
            "centroids": centroid_bytes,
            "inverted_list_ids": id_bytes,
            "total": int(self._base.nbytes) + centroid_bytes + id_bytes,
        }
