"""Flexible pipelined execution engine (paper Section 4.3, Algorithm 1).

The engine runs a query batch against a partition plan on the simulated
cluster. It interleaves two concerns that the paper deliberately
couples:

1. *Real computation* — every algorithm step is delegated to the shared
   :class:`~repro.core.executor.kernel.ScanKernel` (the same code the
   serial and process backends run), so every partial distance is
   actually computed, every pruning decision is taken on real numbers,
   and the returned top-K sets are exact for the probed lists.
2. *Simulated timing* — each kernel step is charged to the hosting
   machine's timeline and each message to the network, so the batch
   makespan reflects queueing, load imbalance, pipelining, and the
   communication mode, just like the paper's MPI deployment.

This module owns only the *timing shell*: machine selection, message
transfers, timeline charging, the stage-synchronous round loop, and the
block order each scan's slice loop (the kernel's ``drive_steps``, one
stage a round) is handed. The search algorithm itself lives in
``repro.core.executor``.

Execution is *stage-synchronous*, mirroring the paper's Figure 5: all
in-flight (query, shard) scans advance one dimension block per round,
so machine timelines receive work in arrival order and the pipeline
overlaps queries naturally. Per query (Algorithm 1):

- **Prewarm**: the client scores a few candidates from the nearest
  probed list to seed the top-K heap with a finite threshold.
- **Vector pipeline**: a query's shards enter the rounds staggered
  (shard ``j`` starts at round ``j``), so survivors of earlier shards
  tighten the heap threshold before later shards scan — Figure 5(a)'s
  Stage A / Stage B rotation.
- **Dimension pipeline**: within a shard, one block per round, hosted
  on its machine; partial results flow machine-to-machine, and in the
  non-pipelined ablation every stage boundary additionally synchronizes
  through a client control round-trip (barrier semantics); candidates
  whose lossless lower bound exceeds the threshold leave the pipeline
  immediately.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import CLIENT_NODE, Cluster
from repro.cluster.messages import (
    MESSAGE_HEADER_BYTES,
    PARTIAL_ENTRY_BYTES,
    partial_result_bytes,
    query_chunk_bytes,
    result_set_bytes,
)
from repro.core.config import HarmonyConfig
from repro.core.executor.base import Backend, check_k
from repro.core.executor.kernel import (
    QueryState,
    ScanKernel,
    collect_results,
    drive_steps,
    recall_vs_healthy,
)
from repro.core.heap import TopKHeap
from repro.core.partition import PartitionPlan
from repro.core.pruning import PruningStats, ShardScan
from repro.core.results import (
    DegradedReport,
    ExecutionReport,
    FaultStats,
    PlacementReport,
    SearchResult,
)
from repro.core.routing import staggered_order
from repro.index.ivf import IVFFlatIndex
from repro.obs.trace import trace_context

#: Client-side cost of merging one partial-result batch (barrier mode).
MERGE_OVERHEAD_SECONDS = 2e-6

#: Client-side per-candidate heap maintenance cost.
HEAP_COST_PER_CANDIDATE = 2e-9

#: Fixed per-query dispatch overhead on the client.
DISPATCH_OVERHEAD_SECONDS = 1e-6

#: Concurrent (query, shard) scans whose partial-result accumulators a
#: machine keeps resident at once. The pipelined engine overlaps this
#: many scans in steady state, so their workspaces coexist — the
#: "intermediate results" memory that makes dimension-partitioned plans
#: peak higher than vector plans (paper Table 5).
IN_FLIGHT_SCANS = 8

#: Memory-restructure rate for dimension-sliced blocks during
#: pre-assignment (bytes per second): one copy pass into column-sliced
#: layout plus workspace initialization.
RESTRUCTURE_BYTES_PER_SECOND = 2e9


def placement_report(
    index: IVFFlatIndex, plan: PartitionPlan, config: HarmonyConfig, network
) -> PlacementReport:
    """Per-machine bytes and simulated time of the Pre-assign stage —
    pure accounting, no cluster state is touched.

    The client streams each grid block over the network, and machines
    hosting *dimension-sliced* blocks additionally restructure them
    into column-sliced layout and initialize partial-result workspaces
    — the data-size-dependent extra cost the paper observes for
    Harmony / Harmony-dimension.
    """
    widths = plan.slices.widths()
    sizes = index.list_sizes()
    per_machine: dict[int, int] = {m: 0 for m in range(plan.n_machines)}
    send_clock = 0.0
    ready_at: dict[int, float] = {m: 0.0 for m in range(plan.n_machines)}

    expected_candidates = int(
        np.ceil(index.ntotal * config.nprobe / index.nlist)
    )
    for shard in range(plan.n_vector_shards):
        shard_rows = int(sizes[plan.lists_of_shard(shard)].sum())
        for block in range(plan.n_dim_blocks):
            block_bytes = shard_rows * widths[block] * 4
            if config.scan_precision == "sq8":
                # Dual representation: uint8 codes ride alongside
                # the fp32 rows (scans stream the codes; survivors
                # re-rank against the full-precision block).
                block_bytes += shard_rows * widths[block]
            id_bytes = shard_rows * 8
            nbytes = block_bytes + id_bytes
            restructure = 0.0
            if plan.n_dim_blocks > 1:
                nbytes += expected_candidates * PARTIAL_ENTRY_BYTES
                restructure = block_bytes / RESTRUCTURE_BYTES_PER_SECOND
            # Every replica holds (and receives) a full copy.
            for machine in plan.replica_machines(shard, block):
                machine = int(machine)
                per_machine[machine] += nbytes
                send_clock += network.transfer_time(nbytes)
                ready_at[machine] = max(
                    ready_at[machine], send_clock + restructure
                )
    preassign = max(ready_at.values()) if ready_at else 0.0
    return PlacementReport(
        per_machine_bytes=per_machine, preassign_seconds=preassign
    )


@dataclass
class _ScanState:
    """One in-flight (query, shard) pass through the dimension pipeline;
    ``steps`` is the kernel's ``drive_steps`` over ``scan``."""

    query_index: int
    shard: int
    scan: ShardScan
    steps: Iterator[tuple[int, int]]
    heap: TopKHeap
    chunk_arrival: dict[int, float]
    start_round: int
    machine_for: dict[int, int] = field(default_factory=dict)
    position: int = 0
    prev_end: float = 0.0
    prev_machine: int | None = None
    finished: bool = False


class PipelineEngine(Backend):
    """Distributed query executor for one (index, plan, cluster) triple:
    the ``sim`` :class:`~repro.core.executor.base.Backend`.

    Unlike the host backends it steps per query — the timing model
    charges stages query by query — but on the same kernel and packed
    layout; charges depend only on candidate counts, which the packed
    gather preserves exactly. Like them it lives as long as its plan:
    the kept kernel absorbs index mutations and :meth:`run` redoes only
    the placed blocks' memory accounting.

    Args:
        index: trained+populated IVF index (shared across strategies).
        plan: the partition plan to execute under.
        cluster: simulated cluster whose timelines are charged.
        config: flags controlling pruning / pipelining / load balance.
    """

    name = "sim"

    def __init__(
        self,
        index: IVFFlatIndex,
        plan: PartitionPlan,
        cluster: Cluster,
        config: HarmonyConfig,
    ) -> None:
        if not index.is_trained:
            raise RuntimeError("engine requires a trained index")
        if plan.n_machines > cluster.n_workers:
            raise ValueError(
                f"plan targets {plan.n_machines} machines but cluster has "
                f"{cluster.n_workers}"
            )
        self.index = index
        self.plan = plan
        self.cluster = cluster
        self.config = config
        self.degraded_mode = bool(config.degraded_mode)
        self._static_allocations: dict[int, int] = {}
        self._placed_version = index.version
        self._inflight: dict[int, list[int]] = {}
        # The client's result-merge side runs on its own timeline: the
        # 56-thread client overlaps dispatching new queries with merging
        # arriving partials, so merge work must not stall dispatch. A
        # backfilling WorkerNode keeps the timeline insensitive to the
        # engine's submission order (merges run when their inputs
        # arrive, not when the program happens to reach them).
        from repro.cluster.node import WorkerNode

        self._merge_timeline = WorkerNode(node_id=-2, compute_rate=1.0)
        self._query_submit = np.zeros(0, dtype=np.float64)
        self._query_complete = np.zeros(0, dtype=np.float64)
        # Projected per-worker compute seconds assigned at dispatch;
        # replica routing balances against this because real loads are
        # still zero while a batch is being dispatched.
        self._dispatch_loads = np.zeros(cluster.n_workers, dtype=np.float64)
        # Per-run fault bookkeeping, rebuilt by run().
        self._fault_stats = FaultStats()
        self._coverage: np.ndarray | None = None
        # The algorithm itself: shared with the serial/process backends.
        self.kernel = ScanKernel(
            index, plan, metric=config.metric, **config.kernel_options()
        )

    # ------------------------------------------------------------------
    # Backend interface
    # ------------------------------------------------------------------

    @classmethod
    def deploy(cls, index, plan, cluster, config) -> "PipelineEngine":
        engine = cls(index, plan, cluster, config)
        engine.place_data()
        return engine

    @property
    def tracer(self):
        """The cluster's ``repro.obs.Tracer``: every simulated charge
        is a span on its machine's lane, so assigning a tracer here
        traces the engine like any other backend."""
        return self.cluster.tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self.cluster.tracer = tracer

    def close(self) -> None:
        """Release the placed blocks' memory from the cluster."""
        self.release_data()

    # ------------------------------------------------------------------
    # Data placement
    # ------------------------------------------------------------------

    def place_data(self) -> PlacementReport:
        """Charge :func:`placement_report`'s static bytes to the workers."""
        if self._static_allocations:
            raise RuntimeError("data already placed; call release_data() first")
        report = placement_report(
            self.index, self.plan, self.config, self.cluster.network
        )
        for machine, nbytes in report.per_machine_bytes.items():
            self.cluster.allocate(machine, nbytes)
        self._static_allocations = dict(report.per_machine_bytes)
        self._placed_version = self.index.version
        return report

    def release_data(self) -> None:
        """Release statically placed blocks (used when re-planning)."""
        for machine, nbytes in self._static_allocations.items():
            self.cluster.release(machine, nbytes)
        self._static_allocations = {}
        self._drain_inflight()

    def _charge_inflight(self, machine: int, nbytes: int) -> None:
        """Track a scan workspace; evict the oldest past the window."""
        window = self._inflight.setdefault(machine, [])
        window.append(nbytes)
        self.cluster.allocate(machine, nbytes)
        if len(window) > IN_FLIGHT_SCANS:
            self.cluster.release(machine, window.pop(0))

    def _drain_inflight(self) -> None:
        """Release every outstanding scan workspace."""
        for machine, window in self._inflight.items():
            for nbytes in window:
                self.cluster.release(machine, nbytes)
        self._inflight = {}

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def run(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int | None = None,
        arrival_times: np.ndarray | None = None,
    ) -> tuple[SearchResult, ExecutionReport]:
        """Execute a query batch; returns answers plus a timing report.

        Results are exactly those of a single-node IVF scan with the
        same nlist/nprobe — pruning is lossless by construction.

        Args:
            queries: ``(nq, dim)`` query batch.
            k: neighbours per query.
            nprobe: probed lists (defaults to the config's).
            arrival_times: optional per-query simulated arrival
                timestamps (ascending) for open-loop load experiments;
                a query is not dispatched before it arrives, and its
                reported latency includes any queueing delay. When
                omitted, the batch is treated closed-loop (all queries
                available at time zero).
        """
        k = check_k(k)
        nprobe = nprobe if nprobe is not None else self.config.nprobe
        if (
            self._static_allocations
            and self._placed_version != self.index.version
        ):
            # The index mutated under placed data: the kernel absorbs
            # the rows lazily, only the memory accounting is redone.
            self.release_data()
            self.place_data()
        queries = self.kernel.prepare_queries(queries)
        if arrival_times is not None:
            arrival_times = np.asarray(arrival_times, dtype=np.float64)
            if arrival_times.shape != (queries.shape[0],):
                raise ValueError(
                    f"need one arrival time per query, got "
                    f"{arrival_times.shape} for {queries.shape[0]} queries"
                )
            if np.any(np.diff(arrival_times) < 0) or np.any(
                arrival_times < 0
            ):
                raise ValueError("arrival_times must be ascending and >= 0")
        skip_shards = self._shards_without_a_live_copy()
        cluster = self.cluster
        cluster.reset_time()
        self._drain_inflight()
        self._merge_timeline.reset_time()
        self._dispatch_loads[:] = 0.0
        plan = self.plan
        index = self.index
        nq = queries.shape[0]
        dim = index.dim

        probes = index.probe(queries, nprobe)

        stats = PruningStats(plan.n_dim_blocks)
        heaps: list[TopKHeap] = []
        states: list[_ScanState] = []
        rerank_before = self.kernel.rerank_candidates_total
        self._query_submit = np.zeros(nq, dtype=np.float64)
        self._query_complete = np.zeros(nq, dtype=np.float64)
        self._fault_stats = FaultStats()
        # [scanned, total] candidate counts per query; only maintained
        # under degraded_mode (the healthy fast path stays untouched).
        self._coverage = (
            np.zeros((nq, 2), dtype=np.int64) if self.degraded_mode else None
        )

        # Dispatch phase: prewarm every query's heap (a kernel step,
        # charged to the client) and create the in-flight scan states
        # with their chunk transfers.
        tracer = cluster.tracer
        for i in range(nq):
            arrival = (
                float(arrival_times[i]) if arrival_times is not None else 0.0
            )
            # Client-side centroid ranking for this query.
            with trace_context(tracer, "route", query=i):
                cluster.compute(
                    CLIENT_NODE, index.nlist * dim, earliest=arrival
                )
            query_state = self.kernel.begin_query(i, queries[i], probes[i], k)
            heaps.append(query_state.heap)
            if self._coverage is not None:
                self._coverage[i, :] += query_state.prewarmed.size
            self._charge_prewarm(query_state, earliest=arrival)
            with trace_context(tracer, "dispatch", query=i):
                _, dispatch_t = cluster.overhead(
                    CLIENT_NODE, DISPATCH_OVERHEAD_SECONDS, earliest=arrival
                )
            # Latency is measured from arrival (open loop) or batch
            # start (closed loop), so client queueing counts.
            self._query_submit[i] = arrival
            self._query_complete[i] = dispatch_t
            for shard_pos, shard in enumerate(
                self.kernel.shards_for(query_state)
            ):
                shard = int(shard)
                if skip_shards and shard in skip_shards:
                    self._fault_stats.skipped_scans += self.kernel._skip_shard(
                        query_state, shard, self._coverage
                    )
                    continue
                state = self._make_state(
                    query_state=query_state,
                    shard=shard,
                    shard_pos=shard_pos,
                    dispatch_t=dispatch_t,
                )
                if state is not None:
                    states.append(state)

        # Stage-synchronous rounds: every live state advances one block
        # per round; shard j of a query enters at round j (vector-level
        # staggering), so earlier shards tighten the threshold first.
        if states:
            last_round = max(
                st.start_round + plan.n_dim_blocks for st in states
            )
            for round_index in range(last_round):
                for state in states:
                    if state.finished or round_index < state.start_round:
                        continue
                    self._advance(state, stats, k)

        result = collect_results(heaps, k)
        fault_stats = self._fault_stats
        degraded = None
        if self._coverage is not None:
            degraded = DegradedReport.from_counts(
                self._coverage,
                skipped_scans=fault_stats.skipped_scans,
                abandoned_scans=fault_stats.abandoned_scans,
                recall_of=lambda degraded_idx: recall_vs_healthy(
                    self.kernel, queries, probes, k, degraded_idx,
                    result.ids,
                ),
            )
        report = ExecutionReport(
            n_queries=nq,
            k=k,
            nprobe=nprobe,
            simulated_seconds=max(
                cluster.makespan(),
                self._merge_timeline.free_at,
                float(self._query_complete.max(initial=0.0)),
            ),
            breakdown=cluster.breakdown(),
            worker_loads=cluster.worker_loads(),
            pruning=stats if plan.n_dim_blocks > 1 else None,
            peak_memory_bytes=cluster.peak_memory_bytes(),
            mean_peak_memory_bytes=cluster.mean_peak_memory_bytes(),
            plan_summary=plan.describe(),
            latencies=self._query_complete - self._query_submit,
            fault_stats=fault_stats if fault_stats.any_activity else None,
            degraded=degraded,
            trace=tracer.trace() if tracer is not None else None,
            rerank_candidates=(
                self.kernel.rerank_candidates_total - rerank_before
            ),
            code_bytes=(
                int(self.kernel._packed.codes_nbytes)
                if self.kernel._packed is not None
                else 0
            ),
        )
        return result, report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _charge_prewarm(
        self, query_state: QueryState, earliest: float
    ) -> None:
        """Charge the kernel's prewarm scoring to the client timeline.

        Prewarm is base-vector scan work displaced from the workers, so
        it is priced at the (scale-derated) worker rate even though it
        runs on the client. No-op when nothing was prewarmed.
        """
        n_scored = query_state.prewarmed.size
        if n_scored == 0:
            return
        worker_rate = self.cluster.workers[0].compute_rate
        start, end = self.cluster.client.occupy(
            n_scored * self.index.dim / worker_rate,
            earliest=earliest,
            category="computation",
        )
        if self.cluster.tracer is not None:
            # Direct client.occupy bypasses Cluster.compute, so the
            # span must be recorded here for category totals to
            # reconcile with the report breakdown.
            self.cluster.tracer.record(
                "prewarm",
                "computation",
                CLIENT_NODE,
                start,
                end,
                query=query_state.query_index,
                candidates=int(n_scored),
            )

    def _make_state(
        self,
        query_state: QueryState,
        shard: int,
        shard_pos: int,
        dispatch_t: float,
    ) -> _ScanState | None:
        """Create the scan state for one (query, shard) pair."""
        plan = self.plan
        cluster = self.cluster
        config = self.config
        scan = self.kernel.make_scan(query_state, shard)
        if scan is None:
            return None
        candidates = scan.candidate_ids
        qidx = query_state.query_index
        if self._coverage is not None:
            self._coverage[qidx, :] += scan.n_candidates

        # Pick each block's serving machine at dispatch time: with
        # replication, the replica with the least *projected* load wins
        # (real loads are still zero during the dispatch phase). Failed
        # workers are routed around; :meth:`run` already skipped (or
        # refused) the shards with a block that has no live replica.
        machine_for: dict[int, int] = {}
        widths = plan.slices.widths()
        for block in range(plan.n_dim_blocks):
            chosen = min(
                (
                    m
                    for m in self._replica_options(shard, block)
                    if not cluster.is_failed(m)
                ),
                key=lambda m: (self._dispatch_loads[m], m),
            )
            machine_for[block] = chosen
            self._dispatch_loads[chosen] += (
                candidates.size
                * widths[block]
                / cluster.workers[chosen].compute_rate
            )

        # Query chunks are dispatched to every involved machine up front.
        chunk_arrival: dict[int, float] = {}
        for block in range(plan.n_dim_blocks):
            with trace_context(
                cluster.tracer, "query-chunk",
                query=qidx, shard=shard, block=block,
            ):
                chunk_arrival[block] = cluster.transfer(
                    CLIENT_NODE,
                    machine_for[block],
                    query_chunk_bytes(widths[block]),
                    earliest=dispatch_t,
                )

        if plan.n_dim_blocks > 1:
            acc_bytes = candidates.size * PARTIAL_ENTRY_BYTES
            for machine in frozenset(machine_for.values()):
                self._charge_inflight(machine, acc_bytes)

        if config.enable_load_balance:
            order = self._least_loaded_first(machine_for)
        elif config.enable_pipeline:
            order = staggered_order(plan.n_dim_blocks, qidx, shard).tolist()
        else:
            order = range(plan.n_dim_blocks)
        heap = query_state.heap
        return _ScanState(
            query_index=qidx,
            shard=shard,
            scan=scan,
            steps=drive_steps(
                scan,
                order,
                (lambda: heap.threshold)
                if self.kernel.enable_pruning
                else None,
            ),
            heap=heap,
            chunk_arrival=chunk_arrival,
            start_round=shard_pos,
            machine_for=machine_for,
        )

    def _replica_options(self, shard: int, block: int) -> list[int]:
        """Machines currently holding (shard, block), ascending.

        The live replica directory (when recovery is enabled) overrides
        the plan's static placement, so blocks re-replicated after a
        crash — or trimmed after a restore — route correctly.
        """
        if self.replica_directory is not None:
            return [int(m) for m in self.replica_directory.holders(shard, block)]
        return [int(m) for m in self.plan.replica_machines(shard, block)]

    def _least_loaded_first(self, machine_for: dict[int, int]):
        """Section 4.3's load-aware order, one block each time the scan
        asks: the block whose machine has done the least computation
        so far, so the busiest machine's block is deferred to later
        positions (the paper's adaptive reordering)."""
        remaining = sorted(machine_for)
        while remaining:
            loads = {
                m.node_id: m.breakdown.computation
                for m in self.cluster.workers
            }
            block = min(
                remaining, key=lambda b: (loads[machine_for[b]], b)
            )
            remaining.remove(block)
            yield block

    def _advance(self, state: _ScanState, stats: PruningStats, k: int) -> None:
        """Advance one state by one dimension block (one round)."""
        plan = self.plan
        cluster = self.cluster
        config = self.config
        scan = state.scan
        step = next(state.steps, None)

        if step is None:
            # Everything pruned: remaining positions are pure skips.
            for position in range(state.position, plan.n_dim_blocks):
                stats.record(
                    position,
                    n_pruned=scan.n_candidates,
                    n_total=scan.n_candidates,
                )
            state.finished = True
            self._query_complete[state.query_index] = max(
                self._query_complete[state.query_index], state.prev_end
            )
            return

        # The stage ran in the kernel; its rows alive at the start are
        # what moves and what is charged (pruning shrinks later stages).
        block, processed = step
        stats.record(
            state.position,
            n_pruned=scan.n_candidates - processed,
            n_total=scan.n_candidates,
        )
        machine = state.machine_for[block]
        widths = plan.slices.widths()
        tracer = cluster.tracer
        qidx = state.query_index

        # Data availability: the query chunk, plus (after position 0)
        # the partial results forwarded from the previous machine.
        ready = state.chunk_arrival[block]
        if state.position > 0 and state.prev_machine is not None:
            nbytes = partial_result_bytes(processed)
            with trace_context(
                tracer, "partial-forward",
                query=qidx, shard=state.shard, block=block,
            ):
                arrival = cluster.transfer(
                    state.prev_machine, machine, nbytes,
                    earliest=state.prev_end,
                )
            if not config.enable_pipeline:
                # Barrier semantics: the next stage may not start until
                # the client has acknowledged the previous one. Data
                # still moves worker-to-worker, but a control round
                # trip (header-sized messages) plus a client merge sits
                # on the critical path of every stage boundary.
                with trace_context(
                    tracer, "barrier-notify",
                    query=qidx, shard=state.shard, block=block,
                ):
                    notify = cluster.transfer(
                        state.prev_machine,
                        CLIENT_NODE,
                        MESSAGE_HEADER_BYTES,
                        earliest=state.prev_end,
                    )
                merged = self._client_merge(
                    MERGE_OVERHEAD_SECONDS, earliest=notify,
                    name="barrier-merge", query=qidx,
                )
                with trace_context(
                    tracer, "barrier-go",
                    query=qidx, shard=state.shard, block=block,
                ):
                    go_ahead = cluster.transfer(
                        CLIENT_NODE, machine, MESSAGE_HEADER_BYTES,
                        earliest=merged,
                    )
                arrival = max(arrival, go_ahead)
            ready = max(ready, arrival)

        elements = processed * widths[block]
        with trace_context(
            tracer, "scan",
            query=qidx, shard=state.shard, block=block,
            position=state.position, processed=int(processed),
            alive=int(scan.n_alive),
            pruned=int(processed - scan.n_alive),
        ):
            _, end = cluster.compute(machine, elements, earliest=ready)
        state.prev_end = end
        state.prev_machine = machine
        state.position += 1

        if state.position == plan.n_dim_blocks:
            state.finished = True
            with trace_context(
                tracer, "result", query=qidx, shard=state.shard,
            ):
                result_arrival = cluster.transfer(
                    machine,
                    CLIENT_NODE,
                    result_set_bytes(min(k, max(scan.n_alive, 1))),
                    earliest=end,
                )
            done_at = result_arrival
            if scan.n_alive:
                n_merged = self.kernel.merge_survivors(scan, state.heap)
                done_at = self._client_merge(
                    DISPATCH_OVERHEAD_SECONDS
                    + n_merged * HEAP_COST_PER_CANDIDATE,
                    earliest=result_arrival,
                    name="merge", query=qidx,
                )
            self._query_complete[state.query_index] = max(
                self._query_complete[state.query_index], done_at
            )

    def _client_merge(
        self,
        seconds: float,
        earliest: float,
        name: str = "merge",
        query: int | None = None,
    ) -> float:
        """Charge result-merge work to the client's merge timeline.

        Runs no earlier than ``earliest`` (the results' arrival) but
        does not stall the client's dispatch timeline; the backfilling
        timeline keeps it independent of submission order. Returns the
        merge completion time.
        """
        start, end = self._merge_timeline.occupy(seconds, earliest, "other")
        self.cluster.client.breakdown.charge("other", seconds)
        tracer = self.cluster.tracer
        if tracer is not None:
            # The merge timeline bypasses Cluster methods, so record
            # the span here (lane -2) to keep category totals aligned
            # with the report breakdown.
            args = {} if query is None else {"query": query}
            tracer.record(
                name, "other", self._merge_timeline.node_id,
                start, end, **args,
            )
        return end
