"""Property test: serving preserves byte identity under any interleaving.

The serving layer's core contract, stated adversarially: no matter how
requests interleave — submission order, mixed ks and nprobes, paused
accumulation vs trickle, admission-control pressure, degraded
admissions — every response a caller actually receives is
byte-identical to a standalone serial execution of that caller's query
at the response's ``nprobe_used``. Coalescing may change *when* and
*with whom* a query runs, and degradation may change *which* nprobe it
runs at, but never the answer bytes for that (query, k, nprobe).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import RequestShed, ServeResponse
from repro.validation import make_serial_oracle
from conftest import make_db

from repro.data.synthetic import gaussian_blobs

_DB = None
_QUERIES = None
_ORACLE = None


def _shared_db():
    """One module-lifetime deployment: hypothesis runs many examples."""
    global _DB, _QUERIES, _ORACLE
    if _DB is None:
        data = gaussian_blobs(900, 24, n_blobs=8, cluster_std=0.45, seed=17)
        _QUERIES = gaussian_blobs(
            964, 24, n_blobs=8, cluster_std=0.45, seed=17
        )[900:]
        _DB = make_db(data, nlist=16, nprobe=6, backend="serial")
        _ORACLE = make_serial_oracle(_DB)
    return _DB, _QUERIES, _ORACLE


@pytest.fixture(scope="module", autouse=True)
def _cleanup():
    yield
    global _DB
    if _DB is not None:
        _DB.close()
        _DB = None


@given(
    data=st.data(),
    n_requests=st.integers(1, 24),
    max_batch=st.sampled_from([1, 3, 8, 32]),
    paused_prefix=st.integers(0, 24),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large],
)
def test_any_interleaving_matches_serial_oracle(
    data, n_requests, max_batch, paused_prefix
):
    db, queries, oracle = _shared_db()
    picks = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, queries.shape[0] - 1),  # query row
                st.integers(1, 7),                     # k
                st.sampled_from([None, 2, 6]),         # nprobe
            ),
            min_size=n_requests,
            max_size=n_requests,
        )
    )
    server = db.serve(max_batch=max_batch, queue_depth=64, slo_ms=200.0)
    try:
        if paused_prefix:
            server.pause()
        futures = []
        for i, (row, k, nprobe) in enumerate(picks):
            if i == min(paused_prefix, len(picks)):
                server.resume()
            futures.append(server.submit(queries[row], k=k, nprobe=nprobe))
        server.resume()
        responses = [f.result(timeout=30) for f in futures]
    finally:
        server.close()
    for (row, k, nprobe), response in zip(picks, responses):
        expected_nprobe = nprobe if nprobe is not None else db.config.nprobe
        assert response.k == k
        assert response.nprobe_used == expected_nprobe
        assert not response.degraded
        ids, distances = oracle(queries[row], k, expected_nprobe)
        assert np.array_equal(ids, response.ids)
        assert np.array_equal(distances, response.distances)


@given(
    data=st.data(),
    n_requests=st.integers(6, 20),
    queue_depth=st.integers(2, 5),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large],
)
def test_degrade_nprobe_interleavings_stay_exact(
    data, n_requests, queue_depth
):
    """Under overload-degraded admission, completed responses are still
    byte-identical to the serial oracle at their (halved) nprobe."""
    db, queries, oracle = _shared_db()
    rows = data.draw(
        st.lists(
            st.integers(0, queries.shape[0] - 1),
            min_size=n_requests,
            max_size=n_requests,
        )
    )
    server = db.serve(
        max_batch=4,
        queue_depth=queue_depth,
        shed_policy="degrade_nprobe",
        slo_ms=200.0,
    )
    try:
        server.pause()  # force the queue past depth before any flush
        futures = [server.submit(queries[row], k=5) for row in rows]
        server.resume()
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result(timeout=30))
            except RequestShed as exc:
                outcomes.append(exc)
    finally:
        server.close()
    completed = [o for o in outcomes if isinstance(o, ServeResponse)]
    shed = [o for o in outcomes if not isinstance(o, ServeResponse)]
    # Accounting closes exactly.
    assert len(completed) + len(shed) == n_requests
    # The hard cap held: pending never exceeded twice the depth.
    assert server.stats.max_queue_depth <= 2 * queue_depth
    saw_degraded = False
    for row, outcome in zip(rows, outcomes):
        if not isinstance(outcome, ServeResponse):
            continue
        if outcome.degraded:
            saw_degraded = True
            assert outcome.nprobe_used == db.config.nprobe // 2
        ids, distances = oracle(queries[row], 5, outcome.nprobe_used)
        assert np.array_equal(ids, outcome.ids)
        assert np.array_equal(distances, outcome.distances)
    # With more requests than the depth and a paused prefix, overload
    # admission must actually have engaged.
    if n_requests > queue_depth:
        assert saw_degraded or shed
