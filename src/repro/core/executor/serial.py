"""Serial backend: the reference oracle.

Runs the shared :class:`~repro.core.executor.kernel.ScanKernel` in a
plain Python loop on the caller's thread — no pool, no simulation, no
scheduling freedom. Because nothing about its execution order is
configurable, its output is the fixed point the other backends (and
:func:`repro.validation.check_exactness`) are compared against.
"""

from __future__ import annotations

from repro.core.executor.base import HostBackend


class SerialBackend(HostBackend):
    """Single-threaded execution, shards and slices in canonical order.

    Multi-query batches route through the kernel's fused
    ``search_batch`` path by default (``batch_queries=False``, or
    pruning off, runs the strict one-``search_one``-per-query loop);
    both are bitwise identical by construction, and the equivalence
    tests pin that.

    Several caller threads may search one instance at once (the
    deployment's executor is shared); each search runs whole on its
    caller's thread. With a ``tracer`` attached (see
    :class:`HostBackend`), a search's wall-clock spans land on its
    caller's lane.
    """

    name = "serial"
