"""Simulated backend: the kernel inside the discrete-event cluster.

Wraps :class:`~repro.core.pipeline.PipelineEngine` — which is itself a
thin timing shell over the shared scan kernel — behind the uniform
:class:`~repro.core.executor.base.Backend` interface. Every kernel step
is charged to a simulated machine's timeline and every partial-result
hand-off to the network, so alongside the (byte-identical) answers the
backend produces the full :class:`~repro.core.results.ExecutionReport`
of the distributed execution.

Unlike the host backends, simulation keeps *per-query* stepping — the
timing model charges stages query by query — but it still reuses the
kernel's packed shard layout and the compacted scans, so its host-side
overhead drops with the same optimizations without perturbing any
simulated timing (charges depend only on candidate counts, which the
packed gather preserves exactly).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.config import HarmonyConfig
from repro.core.executor.base import Backend, default_plan
from repro.core.partition import PartitionPlan
from repro.core.results import ExecutionReport, SearchResult


class SimulatedBackend(Backend):
    """Discrete-event distributed execution of the scan kernel.

    Args:
        index: trained+populated IVF index.
        plan: partition plan; defaults to the same single-shard,
            4-slice plan the host backends use.
        cluster: simulated cluster; a default one sized to the plan is
            created when omitted.
        config: full deployment config; when omitted a minimal one is
            derived from the index, plan, and the keyword knobs.
        **knobs: :class:`HarmonyConfig` fields (``prewarm_size``,
            ``enable_pruning``, ``scan_precision``,
            ``memory_bandwidth`` …) for that derived config; used only
            when ``config`` is omitted.
    """

    name = "sim"

    def __init__(
        self,
        index: "IVFFlatIndex",
        plan: PartitionPlan | None = None,
        cluster: Cluster | None = None,
        config: HarmonyConfig | None = None,
        **knobs,
    ) -> None:
        from repro.core.pipeline import PipelineEngine

        if plan is None:
            plan = default_plan(index)
        if config is None:
            config = HarmonyConfig(
                n_machines=plan.n_machines,
                nlist=index.nlist,
                metric=index.metric,
                **knobs,
            )
        if cluster is None:
            cluster = Cluster(
                n_workers=plan.n_machines,
                memory_bandwidth=config.memory_bandwidth,
            )
        self.index = index
        self.plan = plan
        self.cluster = cluster
        self.config = config
        self.engine = PipelineEngine(
            index=index, plan=plan, cluster=cluster, config=config
        )
        self.last_report: ExecutionReport | None = None

    @property
    def kernel(self):
        return self.engine.kernel

    @property
    def tracer(self):
        """The attached ``repro.obs.Tracer``, or None (untraced).

        Forwards to the cluster so direct users get the same surface
        as the host backends: assign a tracer and every simulated
        charge becomes a span on its machine's lane.
        """
        return self.cluster.tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self.cluster.tracer = tracer

    @property
    def metrics(self):
        """The attached ``repro.obs.MetricsRegistry``, or None."""
        return self.cluster.metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self.cluster.metrics = registry

    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int = 1,
        filter_labels: "np.ndarray | list[int] | None" = None,
    ) -> SearchResult:
        """Search under simulation; the timing report lands in
        :attr:`last_report`."""
        result, report = self.engine.run(
            queries, k=k, nprobe=nprobe, filter_labels=filter_labels
        )
        self.last_report = report
        return result
