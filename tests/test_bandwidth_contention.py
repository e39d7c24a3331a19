"""Memory-bandwidth contention model (node roofline + sq8 advantage).

The simulated cluster optionally caps each node's memory bandwidth,
shared by that node's concurrent scans. Under the cap, full-width fp32
scans become bandwidth-bound: adding concurrent scans stretches every
scan ("more cores hurts"), while 1-byte SQ8 codes stream a quarter of
the bytes and stay compute-bound. With no cap configured (the default)
every timing is identical to the pre-existing compute-only model.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import (
    DEFAULT_COMPUTE_RATE,
    DEFAULT_MEMORY_BANDWIDTH,
    WorkerNode,
)
from repro.core.config import HarmonyConfig
from repro.core.executor import SerialBackend, default_plan
from repro.core.pipeline import PipelineEngine
from repro.index.ivf import IVFFlatIndex


def make_index(n=600, dim=32, nlist=8):
    rng = np.random.default_rng(0)
    base = rng.standard_normal((n, dim)).astype(np.float32)
    index = IVFFlatIndex(dim=dim, nlist=nlist, seed=0)
    index.train(base)
    index.add(base)
    return index


class TestNodeRoofline:
    def test_no_cap_is_pure_compute(self):
        node = WorkerNode(node_id=0, compute_rate=1e9)
        base = node.compute_duration(1e6)
        assert base == 1e6 / 1e9
        # bytes_touched is ignored without a bandwidth cap.
        assert node.compute_duration(1e6, bytes_touched=1e12) == base
        assert (
            node.compute_duration(1e6, bytes_touched=1e12, concurrency=16)
            == base
        )

    def test_cap_takes_the_max_of_compute_and_stream_time(self):
        node = WorkerNode(
            node_id=0, compute_rate=1e9, memory_bandwidth=2e9
        )
        # Compute-bound: few bytes per element.
        assert node.compute_duration(1e6, bytes_touched=1e6) == 1e6 / 1e9
        # Bandwidth-bound: 4 bytes per element wants 4e9 B/s > 2e9.
        assert node.compute_duration(1e6, bytes_touched=4e6) == 4e6 / 2e9
        # No bytes hint -> legacy compute-only duration.
        assert node.compute_duration(1e6) == 1e6 / 1e9

    def test_more_concurrency_hurts_bandwidth_bound_scans(self):
        """The contention paradox: concurrent scans share the cap, so
        each one slows down — more active cores, slower scans."""
        node = WorkerNode(
            node_id=0, compute_rate=1e9, memory_bandwidth=2e9
        )
        solo = node.compute_duration(1e6, bytes_touched=4e6, concurrency=1)
        crowded = node.compute_duration(
            1e6, bytes_touched=4e6, concurrency=8
        )
        assert crowded == pytest.approx(solo * 8)
        # Compute-bound work is immune to the contention.
        assert node.compute_duration(
            1e6, bytes_touched=1e5, concurrency=8
        ) == 1e6 / 1e9

    def test_sq8_streams_quarter_the_bytes(self):
        """At the default derated rates, fp32 full-width scans are
        bandwidth-bound while SQ8 codes stay compute-bound."""
        node = WorkerNode(
            node_id=0,
            compute_rate=DEFAULT_COMPUTE_RATE,
            memory_bandwidth=DEFAULT_MEMORY_BANDWIDTH,
        )
        elements = 1e6
        fp32 = node.compute_duration(elements, bytes_touched=elements * 4)
        sq8 = node.compute_duration(elements, bytes_touched=elements * 1)
        assert fp32 > elements / DEFAULT_COMPUTE_RATE  # bandwidth-bound
        assert sq8 == elements / DEFAULT_COMPUTE_RATE  # compute-bound
        assert fp32 > sq8

    def test_validation(self):
        with pytest.raises(ValueError, match="memory_bandwidth"):
            WorkerNode(node_id=0, memory_bandwidth=0.0)
        node = WorkerNode(node_id=0, memory_bandwidth=1e9)
        with pytest.raises(ValueError, match="bytes_touched"):
            node.compute_duration(10.0, bytes_touched=-1.0)
        with pytest.raises(ValueError, match="concurrency"):
            node.compute_duration(10.0, bytes_touched=1.0, concurrency=0)


class TestClusterPassthrough:
    def test_cluster_applies_cap_to_all_workers(self):
        cluster = Cluster(n_workers=3, memory_bandwidth=5e8)
        assert all(n.memory_bandwidth == 5e8 for n in cluster.workers)
        # The client keeps the uncapped compute-only model.
        assert cluster.client.memory_bandwidth is None

    def test_cluster_default_has_no_cap(self):
        cluster = Cluster(n_workers=2)
        assert all(n.memory_bandwidth is None for n in cluster.workers)

    def test_compute_charges_stretched_duration(self):
        cluster = Cluster(
            n_workers=1, compute_rate=1e9, memory_bandwidth=2e9
        )
        start, end = cluster.compute(
            0, 1e6, bytes_touched=4e6, concurrency=2
        )
        assert end - start == pytest.approx(2 * 4e6 / 2e9)

    def test_projected_seconds_sees_the_cap(self):
        cluster = Cluster(
            n_workers=1, compute_rate=1e9, memory_bandwidth=2e9
        )
        node = cluster.node(0)
        assert node.compute_duration(1e6, bytes_touched=4e6) == (
            pytest.approx(4e6 / 2e9)
        )
        assert node.compute_duration(1e6) == pytest.approx(1e6 / 1e9)


class TestSimulatedContention:
    def run_sim(self, index, queries, scan_precision, memory_bandwidth):
        plan = default_plan(index)
        config = HarmonyConfig(
            n_machines=plan.n_machines,
            nlist=index.nlist,
            scan_precision=scan_precision,
            memory_bandwidth=memory_bandwidth,
        )
        cluster = Cluster(
            n_workers=plan.n_machines, memory_bandwidth=memory_bandwidth
        )
        backend = PipelineEngine(index, plan, cluster, config)
        return backend.run(queries, k=5, nprobe=4)

    def test_cap_slows_fp32_but_sq8_relieves_it(self):
        """Under a tight bandwidth cap the fp32 makespan inflates;
        sq8's 4x smaller scan representation wins it back — with
        byte-identical answers throughout."""
        index = make_index()
        rng = np.random.default_rng(1)
        queries = rng.standard_normal((24, index.dim)).astype(np.float32)
        reference = SerialBackend(index).search(queries, k=5, nprobe=4)

        tight = DEFAULT_COMPUTE_RATE / 4  # fp32 wants 4 B/elem/s
        _, fp32_free = self.run_sim(index, queries, "fp32", None)
        r_fp32, fp32_capped = self.run_sim(index, queries, "fp32", tight)
        r_sq8, sq8_capped = self.run_sim(index, queries, "sq8", tight)

        assert fp32_capped.simulated_seconds > fp32_free.simulated_seconds
        assert (
            sq8_capped.simulated_seconds < fp32_capped.simulated_seconds
        )
        # Default sim config uses adaptive slice ordering, so ids are
        # exact and distances match up to float associativity (the
        # bitwise contract under canonical ordering is pinned in
        # test_executor_equivalence.py).
        for result in (r_fp32, r_sq8):
            np.testing.assert_array_equal(result.ids, reference.ids)
            np.testing.assert_allclose(
                result.distances, reference.distances, rtol=1e-9, atol=1e-12
            )
        assert sq8_capped.rerank_candidates > 0
        assert sq8_capped.code_bytes > 0

    def test_uncapped_timings_unchanged(self):
        """memory_bandwidth=None must be timing-identical to the
        pre-existing compute-only model."""
        index = make_index()
        rng = np.random.default_rng(2)
        queries = rng.standard_normal((8, index.dim)).astype(np.float32)
        _, uncapped_report = self.run_sim(index, queries, "fp32", None)
        # The library defaults, with the knob named nowhere: they must
        # be the uncapped model, not merely agree with themselves.
        plan = default_plan(index)
        backend = PipelineEngine(
            index,
            plan,
            Cluster(n_workers=plan.n_machines),
            HarmonyConfig(n_machines=plan.n_machines, nlist=index.nlist),
        )
        _, default_report = backend.run(queries, k=5, nprobe=4)
        assert (
            uncapped_report.simulated_seconds
            == default_report.simulated_seconds
        )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="memory_bandwidth"):
            HarmonyConfig(memory_bandwidth=-1.0)
        with pytest.raises(ValueError, match="scan_precision"):
            HarmonyConfig(scan_precision="int4")
