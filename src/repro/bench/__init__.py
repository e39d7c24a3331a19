"""Benchmark utilities: recall measurement, tuning, and table formatting.

Shared helpers for the scripts in ``benchmarks/`` that regenerate each
table and figure of the paper's evaluation (Section 6).
"""

from repro.bench.recall import recall_at_k
from repro.bench.reporting import format_series, format_table
from repro.bench.timeline import render_timeline, utilization_grid
from repro.bench.tuning import TuneResult, tune_nprobe

__all__ = [
    "TuneResult",
    "format_series",
    "format_table",
    "recall_at_k",
    "render_timeline",
    "tune_nprobe",
    "utilization_grid",
]
