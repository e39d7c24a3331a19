"""Cap the BLAS thread pool of the running process.

NumPy's OpenBLAS sizes its thread pool from the CPUs it sees at import.
A process pinned to one CPU afterwards — a process-pool worker, forked
from a parent that saw every CPU — keeps that pool, and once a GEMM is
large enough to be split, its threads share the one CPU and spin while
they wait for each other. Measured on a 2-CPU host (100k × 128,
256-query search, ``bench_process_scaling.py`` without
``OPENBLAS_NUM_THREADS``): one pinned worker took 2.4× the serial
search's time with the inherited pool and 0.95× with one BLAS thread.

Only OpenBLAS is handled (the BLAS NumPy's wheels bundle); elsewhere
:func:`limit_blas_threads` is a no-op.
"""

from __future__ import annotations

import ctypes

#: Name stems of OpenBLAS's thread-count entry points: the plain build,
#: the 64-bit-integer build and the ``scipy_openblas`` wheels'.
_STEMS = ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
          "scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads")


def _openblas() -> "ctypes.CDLL | None":
    """The OpenBLAS this process has loaded, or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({
                line.split()[-1] for line in maps
                if "openblas" in line.lower() and "/" in line
            })
    except OSError:
        return None
    return ctypes.CDLL(paths[0]) if paths else None


def limit_blas_threads(n: int) -> "int | None":
    """Set the loaded OpenBLAS's thread count to ``n``.

    Returns the count it replaced, or None where no OpenBLAS (or none
    of its known entry points) is loaded.
    """
    lib = _openblas()
    for stem in _STEMS if lib is not None else ():
        getter = getattr(lib, stem.format("get"), None)
        setter = getattr(lib, stem.format("set"), None)
        if getter is not None and setter is not None:
            previous = getter()
            setter(int(n))
            return previous
    return None
