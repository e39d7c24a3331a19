"""Deployment validation utilities.

The library's central guarantee is that distributed execution —
whatever the partition grid, machine count, pruning, scheduling, or
execution backend — returns exactly what a plain serial scan would.
These helpers let users *check* that guarantee on their own deployment
and data, e.g. after an upgrade or a custom configuration.

The reference oracle is :class:`~repro.core.executor.serial.SerialBackend`
with pruning disabled: a plain loop that accumulates every slice of
every candidate, with no early stop, no threads, and no scheduling
freedom. (Its own agreement with ``IVFFlatIndex.search`` is covered by
the test suite, so the oracle is anchored to the single-node scan.)

The serving layer is held to the same bits one request at a time:
:func:`make_serial_oracle` answers a single query through the
per-query serial loop, and :func:`verify_against_oracle` checks a
stream of served responses against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.database import HarmonyDB
from repro.core.executor.serial import SerialBackend
from repro.serve.server import ServeResponse


@dataclass(frozen=True)
class ExactnessReport:
    """Outcome of an exactness check.

    Attributes:
        exact: True when every returned id and distance matched the
            serial reference scan.
        n_queries: queries checked.
        mismatched_queries: indices of queries whose result rows
            differ (empty when exact).
    """

    exact: bool
    n_queries: int
    mismatched_queries: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.exact


def check_exactness(
    db: HarmonyDB,
    queries: np.ndarray,
    k: int = 10,
    nprobe: int | None = None,
) -> ExactnessReport:
    """Verify a deployment against the serial reference backend.

    Runs the deployment's configured engine and an unpruned
    :class:`SerialBackend` over the same index and plan with identical
    parameters, and compares ids and distances row by row.

    Args:
        db: a built deployment.
        queries: query batch to verify with.
        k / nprobe: search parameters (nprobe defaults to the config's).

    Raises:
        RuntimeError: if ``db`` is not built.
    """
    if not db.is_built:
        raise RuntimeError("build() must be called before validation")
    nprobe = nprobe if nprobe is not None else db.config.nprobe
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    result, _ = db.search(queries, k=k, nprobe=nprobe)
    oracle = SerialBackend(
        db.index, plan=db.plan, prewarm_size=0, enable_pruning=False
    )
    reference = oracle.search(queries, k=k, nprobe=nprobe)
    id_rows = np.all(result.ids == reference.ids, axis=1)
    dist_rows = np.all(
        np.isclose(
            result.distances, reference.distances, rtol=1e-9, atol=1e-12
        )
        | (np.isinf(result.distances) & np.isinf(reference.distances)),
        axis=1,
    )
    good = id_rows & dist_rows
    mismatched = tuple(int(i) for i in np.flatnonzero(~good))
    return ExactnessReport(
        exact=not mismatched,
        n_queries=queries.shape[0],
        mismatched_queries=mismatched,
    )


def make_serial_oracle(db):
    """Per-query serial reference executor for byte-identity checks.

    Builds a :class:`~repro.core.executor.serial.SerialBackend` over
    the database's live index and plan (same pruning / prewarm / scan
    precision settings) and returns ``oracle(query, k, nprobe) ->
    (ids, distances)`` running one query at a time — the ground truth
    any batched, coalesced, or degraded-admission execution must match
    exactly at the same effective nprobe.
    """
    backend = SerialBackend(
        db.index,
        plan=db.plan,
        batch_queries=False,
        **db.config.kernel_options(),
    )

    def oracle(query, k: int, nprobe: int):
        query = np.asarray(query, dtype=np.float32).reshape(1, -1)
        result = backend.search(query, k=k, nprobe=nprobe)
        return result.ids[0], result.distances[0]

    return oracle


def verify_against_oracle(responses, queries, oracle) -> "list[int]":
    """Indices of completed responses that mismatch the serial oracle.

    Admission failures (rejected / shed entries) are skipped — only
    answers actually returned to callers are held to byte identity.
    Degraded responses are checked at their reduced ``nprobe_used``:
    degraded service changes *which* question is answered, never the
    exactness of the answer.
    """
    mismatches: list[int] = []
    for i, response in enumerate(responses):
        if not isinstance(response, ServeResponse):
            continue
        ids, distances = oracle(queries[i], response.k, response.nprobe_used)
        if not (
            np.array_equal(ids, response.ids)
            and np.array_equal(distances, response.distances)
        ):
            mismatches.append(i)
    return mismatches
