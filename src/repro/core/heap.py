"""Bounded top-K heap with a pruning threshold.

The max-heap of Algorithm 1: it retains the K best (smallest-score)
candidates seen so far, and its worst retained score is the pruning
threshold ``tau``. Ties are broken by candidate id so every engine in
the library produces byte-identical result sets.
"""

from __future__ import annotations

import heapq
import math

import numpy as np


class TopKHeap:
    """Keeps the ``k`` lexicographically smallest ``(score, id)`` pairs.

    Scores follow the library convention: smaller is better (squared L2,
    or negated similarity). ``threshold`` is ``+inf`` until the heap is
    full, after which it equals the worst retained score — the value
    partial distances are compared against for early-stop pruning.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        # heapq is a min-heap; store (-score, -id) so the root is the
        # lexicographically largest retained (score, id) pair.
        self._heap: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        return len(self._heap) >= self.k

    @property
    def threshold(self) -> float:
        """Current pruning threshold ``tau`` (``+inf`` until full)."""
        if not self.is_full:
            return math.inf
        return -self._heap[0][0]

    def push(self, score: float, candidate_id: int) -> bool:
        """Offer a candidate; returns True if it was retained.

        A candidate displaces the current worst entry when its
        ``(score, id)`` pair is lexicographically smaller.
        """
        entry = (-float(score), -int(candidate_id))
        if not self.is_full:
            heapq.heappush(self._heap, entry)
            return True
        if entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)
            return True
        return False

    def push_many(self, scores: np.ndarray, ids: np.ndarray) -> int:
        """Offer a batch of candidates; returns how many were retained.

        Equivalent to ``for s, i in zip(scores, ids): push(s, i)`` but
        vectorized: offers that cannot beat the current threshold are
        masked out in one numpy pass, and of the rest only the ``k``
        lexicographically smallest ``(score, id)`` pairs — the only ones
        that can appear in the final heap — are pushed; into an empty
        heap (a prewarm) every one of them is retained, so they are
        heapified in one step. The result has the same retained set and
        threshold as the sequential loop's, and the same return value.
        """
        scores = np.asarray(scores, dtype=np.float64)
        ids = np.asarray(ids, dtype=np.int64)
        if scores.shape != ids.shape or scores.ndim != 1:
            raise ValueError(
                f"scores and ids must be 1-D and congruent, got "
                f"{scores.shape} and {ids.shape}"
            )
        if scores.size == 0:
            return 0
        if self.is_full:
            # push() retains an offer only when (score, id) is
            # lexicographically smaller than the root's pair.
            root_score, root_id = -self._heap[0][0], -self._heap[0][1]
            keep = (scores < root_score) | (
                (scores == root_score) & (ids < root_id)
            )
            scores, ids = scores[keep], ids[keep]
            if scores.size == 0:
                return 0
        if scores.size > self.k:
            order = np.lexsort((ids, scores))[: self.k]
            scores, ids = scores[order], ids[order]
        if not self._heap:
            self._heap = list(zip((-scores).tolist(), (-ids).tolist()))
            heapq.heapify(self._heap)
            return len(self._heap)
        retained = 0
        for score, cid in zip(scores.tolist(), ids.tolist()):
            retained += self.push(score, cid)
        return retained

    def items(self) -> list[tuple[float, int]]:
        """Retained ``(score, id)`` pairs, best first."""
        return sorted((-s, -i) for s, i in self._heap)

    def items_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Retained scores and ids as arrays, best first.

        The vectorized form of :meth:`items` used by the executor's
        result collection: one array conversion plus one lexsort
        instead of per-entry tuple building. Ids are exact — they stay
        well below 2**53, so the float64 round-trip is lossless.
        """
        if not self._heap:
            return (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )
        entries = np.array(self._heap, dtype=np.float64)
        scores = -entries[:, 0]
        ids = (-entries[:, 1]).astype(np.int64)
        order = np.lexsort((ids, scores))
        return scores[order], ids[order]
