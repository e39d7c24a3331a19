"""SLO-aware online serving front end.

``HarmonyDB.search`` is a blocking library call: concurrent callers
each pay full per-request dispatch and can never share the fused
shard-major ``search_batch`` path. :class:`HarmonyServer` turns the
library into a service — individual ``submit(query, k)`` calls from
many threads (or the asyncio facade) are coalesced into micro-batches
of whatever is pending the moment the server is free, executed through
the existing kernel on any backend, and demultiplexed back to per-request
futures. Admission control bounds the queue under overload instead of
letting p99 grow without bound.

Quickstart::

    from repro import HarmonyConfig, HarmonyDB

    db = HarmonyDB(dim=128, config=HarmonyConfig(backend="thread"))
    db.build(base)
    with db.serve() as server:
        futures = [server.submit(q, k=10) for q in queries]
        for fut in futures:
            response = fut.result()
            print(response.ids, response.e2e_seconds)

:mod:`repro.serve.harness` adds the open-loop load harness behind
``python -m repro serve-bench`` and
``benchmarks/bench_latency_under_load.py``.
"""

from repro.serve.harness import (
    OpenLoopResult,
    SequentialResult,
    admission_study,
    make_serial_oracle,
    run_open_loop,
    run_sequential,
    throughput_study,
    verify_against_oracle,
)
from repro.serve.server import (
    SERVE_LANE,
    AdmissionError,
    HarmonyServer,
    RequestRejected,
    RequestShed,
    ServeResponse,
    ServerClosed,
    ServeStats,
)

__all__ = [
    "SERVE_LANE",
    "AdmissionError",
    "HarmonyServer",
    "OpenLoopResult",
    "RequestRejected",
    "RequestShed",
    "SequentialResult",
    "ServeResponse",
    "ServerClosed",
    "ServeStats",
    "admission_study",
    "make_serial_oracle",
    "run_open_loop",
    "run_sequential",
    "throughput_study",
    "verify_against_oracle",
]
