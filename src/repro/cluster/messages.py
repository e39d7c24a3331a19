"""Wire-format size accounting for the messages HARMONY exchanges.

The simulator only needs message *sizes*; these helpers centralize the
byte math so computation and tests agree on it. Sizes follow the
paper's observation that intermediate (partial-distance) results are
far smaller than the raw vectors they describe (Section 1).
"""

from __future__ import annotations

#: Fixed per-message envelope: MPI/tcp headers, query id, shard/slice ids.
MESSAGE_HEADER_BYTES = 64

#: Bytes per transmitted vector coordinate (fp32).
FLOAT_BYTES = 4

#: Bytes per partial-result entry: fp64 accumulated distance + int32
#: candidate index within the shard.
PARTIAL_ENTRY_BYTES = 12

#: Bytes per final result entry: fp64 distance + int64 global id.
RESULT_ENTRY_BYTES = 16


def query_chunk_bytes(width: int) -> int:
    """Size of a query fragment covering ``width`` dimensions."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return MESSAGE_HEADER_BYTES + width * FLOAT_BYTES


def partial_result_bytes(n_survivors: int) -> int:
    """Size of a partial-distance message for ``n_survivors`` candidates."""
    if n_survivors < 0:
        raise ValueError(f"n_survivors must be non-negative, got {n_survivors}")
    return MESSAGE_HEADER_BYTES + n_survivors * PARTIAL_ENTRY_BYTES


def result_set_bytes(k: int) -> int:
    """Size of a top-``k`` result message."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return MESSAGE_HEADER_BYTES + k * RESULT_ENTRY_BYTES

