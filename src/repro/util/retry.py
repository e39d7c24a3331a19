"""Exponential backoff, written once.

The three recovery paths that wait things out share it: the simulated
pipeline's crashed-worker retries
(:meth:`repro.core.pipeline.PipelineEngine._robust_compute`), the
thread pool's per-query straggler hedging and the process pool's round
deadlines. It is jitter-free on purpose: a fault timeline must replay
byte-identically, so a delay is a pure function of its arguments.
"""

from __future__ import annotations


def backoff_delay(attempt: int, base: float) -> float:
    """Delay (seconds) before retry ``attempt`` (0-based):
    ``base * 2**attempt``."""
    if attempt < 0:
        raise ValueError(f"attempt must be non-negative, got {attempt}")
    if base <= 0:
        raise ValueError(f"base must be positive, got {base}")
    return float(base) * 2.0**attempt
