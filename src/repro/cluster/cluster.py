"""Cluster: a client node plus N workers joined by a network model.

This is the execution substrate every distributed engine runs on. The
engines describe *what* work happens where (compute this many elements
on node 3, ship this many bytes from node 3 to node 0); the cluster
turns that into per-node timelines and aggregated statistics.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import NetworkModel
from repro.cluster.node import (
    DEFAULT_CLIENT_COMPUTE_RATE,
    DEFAULT_COMPUTE_RATE,
    WorkerNode,
)
from repro.cluster.stats import TimeBreakdown

#: Node id used for the client / master node.
CLIENT_NODE = -1


class WorkerUnavailableError(RuntimeError):
    """A simulated RPC reached a failed worker.

    Subclasses ``RuntimeError`` so callers that treat failed-worker
    computes as fatal keep matching.
    """


class Cluster:
    """A simulated client + worker-pool deployment.

    Args:
        n_workers: number of worker machines (the paper uses 4/8/16
            workers plus one client).
        compute_rate: per-worker fp32 element rate — either one rate
            shared by all workers, or a sequence of ``n_workers`` rates
            for heterogeneous clusters (stragglers, mixed hardware).
        network: link model shared by all node pairs.

    The client node runs at the physical, non-derated rate (see
    ``repro.cluster.node``).
    """

    def __init__(
        self,
        n_workers: int,
        compute_rate: "float | list[float] | tuple[float, ...]" = (
            DEFAULT_COMPUTE_RATE
        ),
        network: NetworkModel | None = None,
    ) -> None:
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        if isinstance(compute_rate, (int, float)):
            rates = [float(compute_rate)] * n_workers
        else:
            rates = [float(r) for r in compute_rate]
            if len(rates) != n_workers:
                raise ValueError(
                    f"got {len(rates)} compute rates for {n_workers} workers"
                )
        self.network = network or NetworkModel()
        self.workers = [
            WorkerNode(node_id=i, compute_rate=rate)
            for i, rate in enumerate(rates)
        ]
        self.client = WorkerNode(
            node_id=CLIENT_NODE, compute_rate=DEFAULT_CLIENT_COMPUTE_RATE
        )
        self._failed: set[int] = set()
        #: Optional structured span recorder (repro.obs.Tracer). Every
        #: compute / transfer / overhead charge is recorded with the
        #: producer's attribution context; None (the default) keeps the
        #: hot path one attribute check from the untraced build.
        self.tracer = None
        #: Optional live metrics registry (repro.obs.MetricsRegistry):
        #: scan counts, queue waits, transferred bytes.
        self.metrics = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def node(self, node_id: int) -> WorkerNode:
        """Look up a node by id (``CLIENT_NODE`` for the client)."""
        if node_id == CLIENT_NODE:
            return self.client
        if not 0 <= node_id < self.n_workers:
            raise IndexError(
                f"node_id {node_id} out of range [0, {self.n_workers})"
            )
        return self.workers[node_id]

    def all_nodes(self) -> list[WorkerNode]:
        return [self.client, *self.workers]

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def fail_worker(self, node_id: int) -> None:
        """Mark a worker as failed (it accepts no further work).

        Engines route around failed workers using block replicas; a
        block whose every replica is failed makes searches raise.
        """
        self.node(node_id)  # validates the id
        if node_id == CLIENT_NODE:
            raise ValueError("the client node cannot be failed")
        self._failed.add(node_id)

    def restore_worker(self, node_id: int) -> None:
        """Bring a failed worker back into service.

        Raises:
            IndexError: for out-of-range worker ids.
            ValueError: for ``CLIENT_NODE`` (it can never fail, so it
                can never be restored either).
        """
        self.node(node_id)  # validates the id
        if node_id == CLIENT_NODE:
            raise ValueError("the client node cannot be restored")
        self._failed.discard(node_id)

    def is_failed(self, node_id: int) -> bool:
        """Whether a worker is out of service (see :meth:`fail_worker`)."""
        return node_id in self._failed

    @property
    def failed_workers(self) -> frozenset:
        return frozenset(self._failed)

    # ------------------------------------------------------------------
    # Work primitives
    # ------------------------------------------------------------------

    def _record(
        self,
        category: str,
        node_id: int,
        start: float,
        end: float,
        **args,
    ) -> None:
        if end <= start:
            return
        if self.tracer is not None:
            # The span name comes from the producer's tracer context
            # (e.g. the engine's "scan" / "query-chunk" attribution);
            # None falls back to the category.
            self.tracer.record(None, category, node_id, start, end, **args)

    def compute(
        self,
        node_id: int,
        elements: float,
        earliest: float = 0.0,
    ) -> tuple[float, float]:
        """Charge a distance-kernel computation to a node's timeline.

        Returns the ``(start, end)`` simulated timestamps.

        Raises:
            WorkerUnavailableError: when the node is failed.
        """
        if node_id in self._failed:
            raise WorkerUnavailableError(
                f"worker {node_id} is failed and cannot compute"
            )
        node = self.node(node_id)
        duration = node.compute_duration(elements)
        start, end = node.occupy(duration, earliest, "computation")
        self._record("computation", node_id, start, end, elements=elements)
        if self.metrics is not None:
            self.metrics.counter(
                "harmony_compute_calls_total",
                "Compute charges per node",
                node=node_id,
            ).inc()
            self.metrics.histogram(
                "harmony_queue_wait_seconds",
                "Delay between a work item's readiness and its start",
            ).observe(start - earliest)
        return start, end

    def overhead(
        self, node_id: int, seconds: float, earliest: float = 0.0
    ) -> tuple[float, float]:
        """Charge non-kernel work (planning, heap updates, dispatch)."""
        start, end = self.node(node_id).occupy(seconds, earliest, "other")
        self._record("other", node_id, start, end)
        return start, end

    def transfer(
        self, src_id: int, dst_id: int, nbytes: int, earliest: float = 0.0
    ) -> float:
        """Move ``nbytes`` from ``src`` to ``dst``.

        The sender is occupied per the network mode (full transfer when
        blocking, injection overhead when non-blocking); the payload
        arrives ``latency + bytes/bandwidth`` after the send begins.

        Returns:
            Simulated arrival time of the data at ``dst``. Transfers
            between a node and itself are free and instantaneous.
        """
        if src_id == dst_id:
            return earliest
        src = self.node(src_id)
        if self.metrics is not None:
            self.metrics.counter(
                "harmony_transferred_bytes_total",
                "Payload bytes moved between nodes",
            ).inc(nbytes)
        full = self.network.transfer_time(nbytes)
        busy = self.network.sender_busy_time(nbytes)
        start, end = src.occupy(busy, earliest, "communication")
        self._record(
            "communication", src_id, start, end, nbytes=nbytes, dst=dst_id
        )
        return start + full

    # ------------------------------------------------------------------
    # Memory tracking
    # ------------------------------------------------------------------

    def allocate(self, node_id: int, nbytes: int) -> None:
        self.node(node_id).allocate(nbytes)

    def release(self, node_id: int, nbytes: int) -> None:
        self.node(node_id).release(nbytes)

    def peak_memory_bytes(self) -> int:
        """Maximum resident bytes observed on any worker."""
        return max(node.peak_bytes for node in self.workers)

    def mean_peak_memory_bytes(self) -> float:
        """Average of per-worker peak resident bytes."""
        return float(
            np.mean([node.peak_bytes for node in self.workers])
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def makespan(self) -> float:
        """Completion time of the last work item on any node."""
        return max(node.free_at for node in self.all_nodes())

    def worker_loads(self) -> np.ndarray:
        """Per-worker computation seconds (the Load(n, pi) measurement)."""
        return np.array(
            [node.breakdown.computation for node in self.workers],
            dtype=np.float64,
        )

    def breakdown(self) -> TimeBreakdown:
        """Cluster-wide category totals (client + workers)."""
        total = TimeBreakdown()
        for node in self.all_nodes():
            total.add(node.breakdown)
        return total

    def reset_time(self) -> None:
        """Clear all timelines; keeps memory-tracking state."""
        for node in self.all_nodes():
            node.reset_time()
        if self.tracer is not None:
            self.tracer.clear()
