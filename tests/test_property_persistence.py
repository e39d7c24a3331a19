"""Property-based round-trip tests for persistence."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import HarmonyConfig, Mode
from repro.core.database import HarmonyDB
from repro.data.synthetic import gaussian_blobs
from repro.index.ivf import IVFFlatIndex


class TestIndexRoundTripProperties:
    @given(
        seed=st.integers(0, 50),
        nlist=st.sampled_from([4, 8, 16]),
        n_deleted=st.integers(0, 40),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_search_identical_after_round_trip(
        self, tmp_path, seed, nlist, n_deleted
    ):
        data = gaussian_blobs(250, 12, n_blobs=5, seed=seed)
        queries = gaussian_blobs(260, 12, n_blobs=5, seed=seed)[250:]
        rng = np.random.default_rng(seed)
        index = IVFFlatIndex(dim=12, nlist=nlist, seed=0)
        index.train(data)
        index.add(data)
        if n_deleted:
            index.remove_ids(rng.choice(250, size=n_deleted, replace=False))

        path = tmp_path / f"ix_{seed}_{nlist}_{n_deleted}.npz"
        index.save(path)
        loaded = IVFFlatIndex.load(path)

        d1, i1 = index.search(queries, k=5, nprobe=4)
        d2, i2 = loaded.search(queries, k=5, nprobe=4)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_allclose(d1, d2)
        assert loaded.nlive == index.nlive


class TestDatabaseRoundTripProperties:
    @given(
        seed=st.integers(0, 30),
        mode=st.sampled_from(list(Mode)),
        n_machines=st.sampled_from([2, 4]),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_deployment_round_trip(self, tmp_path, seed, mode, n_machines):
        data = gaussian_blobs(300, 16, n_blobs=5, seed=seed)
        queries = gaussian_blobs(312, 16, n_blobs=5, seed=seed)[300:]
        db = HarmonyDB(
            dim=16,
            config=HarmonyConfig(
                n_machines=n_machines, nlist=8, nprobe=4, mode=mode, seed=0
            ),
        )
        db.build(data, sample_queries=queries)
        r1, _ = db.search(queries, k=5)

        path = tmp_path / f"db_{seed}_{mode.value}_{n_machines}.npz"
        db.save(path)
        loaded = HarmonyDB.load(path)
        r2, _ = loaded.search(queries, k=5)
        np.testing.assert_array_equal(r1.ids, r2.ids)
        assert loaded.plan.describe() == db.plan.describe()
