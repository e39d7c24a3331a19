"""Replica tracking and simulated re-replication after node loss.

The partition plan says where grid blocks *should* live; the
:class:`ReplicaDirectory` tracks where live copies *actually* are as
machines crash, blocks are re-replicated, and machines return. The
:class:`RecoveryManager` drives the repair loop the paper's evaluation
never exercises:

- on failure detection, every block that lost a copy is re-copied from
  a surviving replica to the least-loaded live machine, charging the
  simulated transfer and reporting the time to full redundancy;
- blocks whose every copy is gone stay *unavailable* — searches under
  ``degraded_mode`` skip them with an explicit coverage flag;
- on restore, the returning machine's copies come back (crash = the
  machine went offline with its data intact) and the extra copies
  created during repair are trimmed, returning the cluster to the
  plan's original placement.

Everything is deterministic: targets break ties by machine id and all
timing flows through the cluster's discrete-event primitives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.core.partition import PartitionPlan
from repro.obs.trace import trace_context

#: Bytes per fp32 coordinate / int64 id, mirroring PipelineEngine's
#: placement accounting.
_FLOAT_BYTES = 4
_ID_BYTES = 8


def block_bytes(index, plan: PartitionPlan, shard: int, block: int) -> int:
    """Data bytes of grid block ``(shard, block)``: rows + global ids.

    Matches the placement accounting in ``PipelineEngine.place_data``
    minus the partial-result workspace (workspaces are rebuilt, not
    copied, during recovery).
    """
    widths = plan.slices.widths()
    shard_rows = int(index.list_sizes()[plan.lists_of_shard(shard)].sum())
    return shard_rows * (widths[block] * _FLOAT_BYTES + _ID_BYTES)


def unavailable_shards(
    cluster: Cluster,
    plan: PartitionPlan,
    directory: "ReplicaDirectory | None" = None,
) -> set[int]:
    """Vector shards with at least one grid block lacking a live copy.

    A shard whose dimension pipeline cannot complete (any block dead)
    contributes nothing; degraded-mode searches skip exactly this set,
    on every backend, which is what keeps the semantics consistent
    between the simulator and the host backends.
    """
    dead: set[int] = set()
    for shard in range(plan.n_vector_shards):
        for block in range(plan.n_dim_blocks):
            if directory is not None:
                holders = directory.holders(shard, block)
            else:
                holders = tuple(
                    int(m) for m in plan.replica_machines(shard, block)
                )
            if not any(not cluster.is_failed(m) for m in holders):
                dead.add(shard)
                break
    return dead


class ReplicaDirectory:
    """Where every grid block's live copies currently reside.

    Initialized from the plan's replica placement; mutated only through
    the explicit transitions below, so the engine's replica routing can
    trust it as the single source of truth once attached.
    """

    def __init__(self, plan: PartitionPlan, index) -> None:
        self.plan = plan
        self.index = index
        self._holders: dict[tuple[int, int], list[int]] = {}
        self._extras: dict[tuple[int, int], list[int]] = {}
        self._offline: dict[int, list[tuple[int, int]]] = {}
        for shard in range(plan.n_vector_shards):
            for block in range(plan.n_dim_blocks):
                machines = [
                    int(m) for m in plan.replica_machines(shard, block)
                ]
                self._holders[(shard, block)] = sorted(set(machines))

    def holders(self, shard: int, block: int) -> tuple[int, ...]:
        """Machines holding a live copy of ``(shard, block)``, ascending."""
        return tuple(self._holders[(shard, block)])

    def redundancy(self, shard: int, block: int) -> int:
        return len(self._holders[(shard, block)])

    @property
    def target_redundancy(self) -> int:
        return self.plan.replicas

    def blocks_on(self, machine: int) -> list[tuple[int, int]]:
        """Grid blocks with a live copy on ``machine``."""
        return [key for key, held in self._holders.items() if machine in held]

    def lost_blocks(self) -> list[tuple[int, int]]:
        """Blocks with zero live copies (coverage holes)."""
        return [key for key, held in self._holders.items() if not held]

    def under_replicated(self) -> list[tuple[int, int]]:
        """Blocks below the target redundancy, sorted."""
        return sorted(
            key
            for key, held in self._holders.items()
            if len(held) < self.target_redundancy
        )

    def block_nbytes(self, shard: int, block: int) -> int:
        return block_bytes(self.index, self.plan, shard, block)

    def resident_bytes(self, machine: int) -> int:
        """Data bytes of the live copies on ``machine``."""
        return sum(self.block_nbytes(*key) for key in self.blocks_on(machine))

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def take_offline(self, machine: int) -> list[tuple[int, int]]:
        """A machine crashed: its copies leave service (data intact)."""
        stranded = self.blocks_on(machine)
        placed: list[tuple[int, int]] = []
        for key in stranded:
            self._holders[key].remove(machine)
            extras = self._extras.get(key, [])
            if machine in extras:
                # Repair-era copies die with the machine; only the
                # plan-placed copies return on restore.
                extras.remove(machine)
            else:
                placed.append(key)
        self._offline[machine] = placed
        return stranded

    def bring_online(self, machine: int) -> list[tuple[int, int]]:
        """A machine returned: its stranded copies rejoin service."""
        restored = self._offline.pop(machine, [])
        for key in restored:
            if machine not in self._holders[key]:
                self._holders[key].append(machine)
                self._holders[key].sort()
        return restored

    def add_copy(
        self, shard: int, block: int, machine: int, extra: bool = True
    ) -> None:
        """Register a freshly copied replica (from re-replication)."""
        key = (shard, block)
        if machine in self._holders[key]:
            raise ValueError(
                f"machine {machine} already holds block {key}"
            )
        self._holders[key].append(machine)
        self._holders[key].sort()
        if extra:
            self._extras.setdefault(key, []).append(machine)

    def drop_extra_copies(self, shard: int, block: int) -> list[int]:
        """Trim repair-created copies above the target redundancy.

        Returns the machines whose copy was dropped (memory to release).
        """
        key = (shard, block)
        dropped: list[int] = []
        extras = self._extras.get(key, [])
        while extras and len(self._holders[key]) > self.target_redundancy:
            machine = extras.pop()
            self._holders[key].remove(machine)
            dropped.append(machine)
        return dropped


@dataclass
class RecoveryReport:
    """Outcome of one repair or rebalance pass.

    Attributes:
        node: the machine that failed or returned.
        action: ``"re-replicate"`` or ``"rebalance"``.
        started_at: simulated time the pass began.
        completed_at: simulated arrival of the last copied block
            (equals ``started_at`` when nothing moved).
        blocks_copied / bytes_copied: repair traffic.
        blocks_lost: blocks left with zero live copies (coverage holes
            until the machine returns).
        blocks_trimmed: repair-era extra copies dropped by a rebalance.
    """

    node: int
    action: str
    started_at: float
    completed_at: float
    blocks_copied: int = 0
    bytes_copied: int = 0
    blocks_lost: int = 0
    blocks_trimmed: int = 0

    @property
    def time_to_full_redundancy(self) -> float:
        """Simulated seconds from detection to the last copy landing."""
        return self.completed_at - self.started_at

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "action": self.action,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "time_to_full_redundancy": self.time_to_full_redundancy,
            "blocks_copied": self.blocks_copied,
            "bytes_copied": self.bytes_copied,
            "blocks_lost": self.blocks_lost,
            "blocks_trimmed": self.blocks_trimmed,
        }


@dataclass
class RecoveryManager:
    """Failure detection response: re-replicate, then rebalance.

    Args:
        cluster: the simulated cluster (timelines are charged here).
        plan: the active partition plan.
        index: the deployed index (block sizes).
        directory: live replica locations; the engine routing must be
            attached to the *same* directory for repairs to take effect.
    """

    cluster: Cluster
    plan: PartitionPlan
    index: object
    directory: ReplicaDirectory
    history: list[RecoveryReport] = field(default_factory=list)

    def _least_loaded_target(
        self, excluded: "set[int] | tuple[int, ...]"
    ) -> int | None:
        """Live machine with the fewest resident bytes, id as tiebreak.

        Ranked on the directory's placement, not on the cluster's
        memory counters: those are charged by whichever executor is
        open, so they would make the target depend on the backend and
        on whether a search has run yet.
        """
        options = [
            m
            for m in range(self.cluster.n_workers)
            if m not in excluded and not self.cluster.is_failed(m)
        ]
        if not options:
            return None
        return min(
            options,
            key=lambda m: (self.directory.resident_bytes(m), m),
        )

    def mark_failed(self, node: int) -> list[tuple[int, int]]:
        """Crash ``node`` without repairing (pre-detection window).

        Returns the grid blocks that lost a copy. Use :meth:`repair`
        once the simulated failure detector fires; :meth:`fail` does
        both in one step for zero-delay detection.
        """
        self.cluster.fail_worker(node)
        return self.directory.take_offline(node)

    def _repair_blocks(
        self,
        keys: "list[tuple[int, int]]",
        now: float,
        report: RecoveryReport,
    ) -> None:
        for shard, block in keys:
            survivors = [
                m
                for m in self.directory.holders(shard, block)
                if not self.cluster.is_failed(m)
            ]
            if not survivors:
                report.blocks_lost += 1
                continue
            if len(survivors) >= self.directory.target_redundancy:
                continue
            target = self._least_loaded_target(
                excluded=set(self.directory.holders(shard, block))
            )
            if target is None:
                continue
            nbytes = self.directory.block_nbytes(shard, block)
            with trace_context(
                self.cluster.tracer, "re-replicate",
                shard=shard, block=block,
            ):
                arrival = self.cluster.transfer(
                    survivors[0], target, nbytes, earliest=now
                )
            if self.cluster.metrics is not None:
                self.cluster.metrics.counter(
                    "harmony_repair_bytes_total",
                    "Bytes re-replicated after failures",
                ).inc(nbytes)
            self.cluster.allocate(target, nbytes)
            self.directory.add_copy(shard, block, target, extra=True)
            report.blocks_copied += 1
            report.bytes_copied += nbytes
            report.completed_at = max(report.completed_at, arrival)

    def repair(self, now: float = 0.0) -> RecoveryReport:
        """Re-replicate every under-replicated block in the directory.

        One failure-detector pass: blocks below the target redundancy
        are copied from a surviving replica to the least-loaded live
        machine, charging the simulated transfer; blocks with zero
        live copies are reported lost (coverage holes until their
        machine returns).
        """
        report = RecoveryReport(
            node=-1,
            action="re-replicate",
            started_at=now,
            completed_at=now,
        )
        self._repair_blocks(self.directory.under_replicated(), now, report)
        self.history.append(report)
        return report

    def fail(self, node: int, now: float = 0.0) -> RecoveryReport:
        """Crash ``node`` and repair every block that lost a copy.

        Each under-replicated block is copied from a surviving replica
        to the least-loaded live machine; the copy charges the real
        simulated transfer, so time-to-full-redundancy reflects block
        sizes and the network model. Blocks with no surviving copy are
        reported lost (and stay lost until the node returns).
        """
        stranded = self.mark_failed(node)
        report = RecoveryReport(
            node=node,
            action="re-replicate",
            started_at=now,
            completed_at=now,
        )
        self._repair_blocks(stranded, now, report)
        self.history.append(report)
        return report

    def restore(self, node: int, now: float = 0.0) -> RecoveryReport:
        """Return ``node`` to service and rebalance back to the plan.

        The machine comes back with its originally placed copies
        (crash = offline, not disk loss), closing any coverage holes it
        caused; repair-era extra copies above the target redundancy are
        then trimmed and their memory released.
        """
        self.cluster.restore_worker(node)
        restored = self.directory.bring_online(node)
        report = RecoveryReport(
            node=node,
            action="rebalance",
            started_at=now,
            completed_at=now,
        )
        for shard, block in restored:
            for machine in self.directory.drop_extra_copies(shard, block):
                self.cluster.release(
                    machine, self.directory.block_nbytes(shard, block)
                )
                report.blocks_trimmed += 1
        self.history.append(report)
        return report

    def total_repair_bytes(self) -> int:
        return sum(r.bytes_copied for r in self.history)
