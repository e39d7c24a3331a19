"""Discrete-event cluster simulator.

The paper evaluates HARMONY on a 20-node cluster (56-thread Xeon nodes,
100 Gb/s links, OpenMPI with blocking and non-blocking modes). This
package reproduces that platform's *cost structure* deterministically:

- :class:`~repro.cluster.node.WorkerNode` charges compute time as
  ``elements / compute_rate`` to a per-node timeline,
- :class:`~repro.cluster.network.NetworkModel` charges transfers as
  ``latency + bytes / bandwidth``, with blocking transfers occupying the
  sender and non-blocking ones overlapping with computation,
- :class:`~repro.cluster.cluster.Cluster` tracks per-node timelines,
  computation/communication/other breakdowns, per-node load, and peak
  memory — everything the paper's Figures 2(b), 8 and Tables 5 report.

Faults are static machine failures: ``Cluster.fail_worker`` /
``restore_worker`` take a machine out of service, the engine routes
each block to a live replica at dispatch, and
:class:`~repro.cluster.recovery.RecoveryManager` re-replicates lost
blocks. Every backend honours the same failure set identically. The
wall-clock crashes and stragglers of real pool workers live in
:mod:`repro.cluster.host_faults`.

Simulated QPS is ``queries / makespan`` where the makespan emerges from
queueing on the node timelines, so load imbalance and pruning both show
up exactly as they would on real hardware.
"""

from repro.cluster.cluster import Cluster, WorkerUnavailableError
from repro.cluster.messages import (
    MESSAGE_HEADER_BYTES,
    partial_result_bytes,
    query_chunk_bytes,
    result_set_bytes,
)
from repro.cluster.host_faults import (
    DelayScan,
    DropSharedMemory,
    HostFaultInjector,
    KillWorker,
)
from repro.cluster.network import CommMode, NetworkModel
from repro.cluster.node import WorkerNode
from repro.cluster.recovery import (
    RecoveryManager,
    RecoveryReport,
    ReplicaDirectory,
    unavailable_shards,
)
from repro.cluster.stats import TimeBreakdown

__all__ = [
    "Cluster",
    "CommMode",
    "DelayScan",
    "DropSharedMemory",
    "HostFaultInjector",
    "KillWorker",
    "MESSAGE_HEADER_BYTES",
    "NetworkModel",
    "RecoveryManager",
    "RecoveryReport",
    "ReplicaDirectory",
    "TimeBreakdown",
    "WorkerNode",
    "WorkerUnavailableError",
    "partial_result_bytes",
    "query_chunk_bytes",
    "result_set_bytes",
    "unavailable_shards",
]
