"""Deterministic chaos injection for the *host* execution path.

The simulated cluster models faults only as static machine failures
(``Cluster.fail_worker``, replicas, ``degraded_mode``), which every
backend honours identically. Crashes and stragglers of *real* worker
processes are what this module plays out: a :class:`HostFaultInjector`
carries a seeded schedule of injection points that the thread and
process backends consult at well-defined moments:

- **kill** (:class:`KillWorker`) — worker ``N`` dies when it *starts*
  its ``T``-th task. On the process backend the worker process calls
  ``os._exit`` (a genuine SIGKILL-equivalent death the supervisor must
  detect, requeue around, and respawn); on the thread backend the task
  is killed at entry — before any shared state is touched — and simply
  re-run.
- **delay** (:class:`DelayScan`) — straggler emulation: matching
  tasks run ``multiplier``x slower (the task is timed and the excess
  slept) or sleep a fixed ``seconds``. On the process pool, the
  parent hands the slowed worker fewer tasks: it returns, and so is
  handed its next one, less often.
- **drop shm** (:class:`DropSharedMemory`) — the shared layout
  segment disappears before dispatch ``at_batch``; the process
  backend must treat this as total pool loss and fall back to the
  serial loop (the only case fallback is still allowed for). Only the
  process pool has a shared segment, so ``HarmonyDB.set_host_faults``
  refuses these rules on the thread pool.

Kills fire when a worker *starts* a task — never in a half-merged
heap — so every schedule is replayable and the recovery contract
stays testable: coverage 1.0 results must be byte-identical to the
serial oracle no matter which schedule ran.

The injector is parent-owned. Worker processes receive only a plain
picklable spec (:meth:`HostFaultInjector.process_spec`); the parent
disarms a kill rule once it observes the death
(:meth:`on_worker_death`), so a respawned worker does not re-die on
the same rule and crash-loop.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

#: Exit code used by chaos-killed worker processes (visible in
#: ``Process.exitcode`` — distinguishes injected deaths from bugs).
CHAOS_EXIT_CODE = 42


@dataclass(frozen=True)
class KillWorker:
    """Kill worker ``worker`` when it starts its ``at_task``-th task.

    ``at_task`` counts tasks *started by that worker slot* since the
    injector was armed (0-based). On the thread backend, where pool
    threads have no stable identity, the ordinal counts all tasks
    globally and ``worker`` is ignored.
    """

    worker: int
    at_task: int


@dataclass(frozen=True)
class DelayScan:
    """Slow matching scans down (straggler emulation).

    Attributes:
        multiplier: run matching tasks this many times slower (the
            task is timed, then ``(multiplier - 1) x elapsed`` is
            slept) — the wall-clock counterpart of a slow entry in the
            simulated cluster's ``compute_rate`` list.
        seconds: alternatively, a fixed extra sleep per matching task.
        worker: restrict to one worker slot (None = any).
        every: apply to every ``every``-th matching task (1 = all).
    """

    multiplier: float = 1.0
    seconds: float = 0.0
    worker: "int | None" = None
    every: int = 1

    def __post_init__(self) -> None:
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.seconds < 0:
            raise ValueError(
                f"seconds must be non-negative, got {self.seconds}"
            )
        if self.every <= 0:
            raise ValueError(f"every must be positive, got {self.every}")


@dataclass(frozen=True)
class DropSharedMemory:
    """Drop the shared layout segment before dispatch ``at_batch``.

    ``at_batch`` is the 0-based ordinal of ``ProcessBackend`` batch
    dispatches since the injector was armed.
    """

    at_batch: int


def apply_task_chaos(spec: "dict | None", worker: int, ordinal: int):
    """Worker-process side: act on a picklable chaos spec.

    Called at task start with the worker's own task ordinal. Kills
    exit the process immediately with :data:`CHAOS_EXIT_CODE`; every
    result the worker sent before is already in its pipe, because a
    ``Connection.send`` has written its bytes when it returns. Returns
    the :class:`DelayScan`-shaped delay descriptor to apply
    (``(multiplier, seconds)``) or ``None``.
    """
    if not spec:
        return None
    kill_at = spec.get("kills", {}).get(worker)
    if kill_at is not None and ordinal >= int(kill_at):
        import os

        os._exit(CHAOS_EXIT_CODE)
    for rule in spec.get("delays", ()):
        if rule["worker"] is not None and rule["worker"] != worker:
            continue
        if (ordinal + 1) % rule["every"] == 0:
            return (rule["multiplier"], rule["seconds"])
    return None


def sleep_for_delay(delay, elapsed: float) -> None:
    """Apply one chaos delay descriptor after a timed task body."""
    if delay is None:
        return
    multiplier, seconds = delay
    extra = max(0.0, (float(multiplier) - 1.0) * elapsed) + float(seconds)
    if extra > 0:
        time.sleep(extra)


class HostFaultInjector:
    """A seeded, replayable schedule of host-path fault injections.

    Attach to any host backend (``backend.chaos = injector`` or
    ``HarmonyDB.set_host_faults``); thread-safe — the thread backend's
    pool consults it concurrently.
    """

    def __init__(
        self,
        kills: "tuple[KillWorker, ...] | list[KillWorker]" = (),
        delays: "tuple[DelayScan, ...] | list[DelayScan]" = (),
        shm_drops: (
            "tuple[DropSharedMemory, ...] | list[DropSharedMemory]"
        ) = (),
        seed: int = 0,
    ) -> None:
        self.seed = int(seed)
        self.delays = tuple(delays)
        self.shm_drops = tuple(shm_drops)
        self._kills: dict[int, int] = {}
        for kill in kills:
            at = int(kill.at_task)
            worker = int(kill.worker)
            self._kills[worker] = min(
                self._kills.get(worker, at), at
            )
        self._lock = threading.Lock()
        self._thread_ordinal = 0
        self._batch_ordinal = 0
        #: Injections that actually fired (for assertions in tests).
        self.fired: list[str] = []

    # -- construction ---------------------------------------------------

    @classmethod
    def random(
        cls,
        n_workers: int,
        seed: int,
        p_kill: float = 0.7,
        p_delay: float = 0.7,
        max_kill_task: int = 6,
        max_delay_seconds: float = 0.01,
        max_multiplier: float = 4.0,
    ) -> "HostFaultInjector":
        """A random-but-replayable schedule (property-test driver)."""
        rng = np.random.default_rng(seed)
        kills = []
        if n_workers > 0 and rng.random() < p_kill:
            kills.append(
                KillWorker(
                    worker=int(rng.integers(0, n_workers)),
                    at_task=int(rng.integers(0, max_kill_task)),
                )
            )
        delays = []
        if rng.random() < p_delay:
            delays.append(
                DelayScan(
                    multiplier=float(rng.uniform(1.0, max_multiplier)),
                    seconds=float(rng.uniform(0.0, max_delay_seconds)),
                    worker=(
                        int(rng.integers(0, n_workers))
                        if n_workers > 0 and rng.random() < 0.5
                        else None
                    ),
                    every=int(rng.integers(1, 4)),
                )
            )
        return cls(kills=kills, delays=delays, seed=seed)

    # -- parent-side hooks ----------------------------------------------

    def process_spec(self) -> "dict | None":
        """Picklable spec shipped to worker processes per dispatch.

        Only the still-armed rules; the parent disarms a kill once the
        death is observed so respawned workers do not crash-loop.
        """
        with self._lock:
            kills = dict(self._kills)
        delays = [
            {
                "worker": rule.worker,
                "every": rule.every,
                "multiplier": rule.multiplier,
                "seconds": rule.seconds,
            }
            for rule in self.delays
        ]
        if not kills and not delays:
            return None
        return {"kills": kills, "delays": delays}

    def on_worker_death(self, worker: int) -> None:
        """Disarm the kill rule that (presumably) just fired."""
        with self._lock:
            if self._kills.pop(int(worker), None) is not None:
                self.fired.append(f"kill:worker={worker}")

    def check_shared_memory(self, backend) -> None:
        """Raise ``OSError`` when a shm-drop event covers this dispatch.

        Called by ``ProcessBackend`` before each batch dispatch; also
        unlinks the live segment so the loss is real, not simulated.
        """
        with self._lock:
            ordinal = self._batch_ordinal
            self._batch_ordinal += 1
            due = [d for d in self.shm_drops if d.at_batch == ordinal]
            if due:
                self.fired.append(f"shm-drop:batch={ordinal}")
        if not due:
            return
        backend._retire_shared_layout()
        raise OSError(f"chaos: shared layout segment dropped (batch {ordinal})")

    # -- thread-backend side --------------------------------------------

    def thread_task_event(self):
        """Per-task event for the thread backend's global task stream.

        Returns ``(delay_descriptor | None, kill: bool)``; a kill is
        one-shot (the rule is consumed) and must be acted on by the
        caller *before* touching shared state.
        """
        with self._lock:
            ordinal = self._thread_ordinal
            self._thread_ordinal += 1
            kill = False
            for worker, at_task in list(self._kills.items()):
                if ordinal >= at_task:
                    del self._kills[worker]
                    self.fired.append(f"kill:task={ordinal}")
                    kill = True
                    break
        delay = None
        for rule in self.delays:
            if (ordinal + 1) % rule.every == 0:
                delay = (rule.multiplier, rule.seconds)
                break
        return delay, kill

    def describe(self) -> dict:
        """JSON-safe summary (benchmark manifests)."""
        with self._lock:
            kills = dict(self._kills)
        return {
            "seed": self.seed,
            "kills": {str(k): int(v) for k, v in kills.items()},
            "delays": [
                {
                    "worker": rule.worker,
                    "every": rule.every,
                    "multiplier": rule.multiplier,
                    "seconds": rule.seconds,
                }
                for rule in self.delays
            ],
            "shm_drops": [int(d.at_batch) for d in self.shm_drops],
            "fired": list(self.fired),
        }
