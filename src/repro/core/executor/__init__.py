"""Backend-agnostic execution core (Algorithm 1, once).

The HARMONY search algorithm — prewarm → per-shard dimension pipeline →
lossless prune → heap merge — lives in :class:`ScanKernel`; the
:class:`Backend` implementations decide where its steps run:

========  ==========================  ===================================
name      class                       substrate
========  ==========================  ===================================
serial    :class:`SerialBackend`      plain loop (reference oracle)
thread    :class:`ThreadBackend`      persistent host thread pool
process   :class:`ProcessBackend`     worker processes over shared memory
sim       ``PipelineEngine``          discrete-event cluster + timelines
========  ==========================  ===================================

(``PipelineEngine`` lives in :mod:`repro.core.pipeline`, which imports
this package, so it is not re-exported here.)

All backends return byte-identical ids/distances by construction; only
the timing side effects differ.
"""

from repro.core.executor.base import (
    BACKENDS,
    Backend,
    HostBackend,
    default_plan,
    resolve_backend,
)
from repro.core.executor.kernel import (
    QueryState,
    ScanKernel,
    collect_results,
)
from repro.core.executor.process import ProcessBackend, ProcessPoolError
from repro.core.executor.serial import SerialBackend
from repro.core.executor.threads import ThreadBackend

__all__ = [
    "BACKENDS",
    "Backend",
    "HostBackend",
    "ProcessBackend",
    "ProcessPoolError",
    "QueryState",
    "ScanKernel",
    "SerialBackend",
    "ThreadBackend",
    "collect_results",
    "default_plan",
    "resolve_backend",
]
