"""Network cost model.

Models the paper's 100 Gb/s interconnect with per-message latency.
Transfer time is ``latency + bytes / bandwidth``; the communication
*mode* decides whether the sender is occupied for the whole transfer
(blocking, MPI_Send) or only for a small injection overhead
(non-blocking, MPI_Isend overlapping with local computation) — the
B / NB distinction of the paper's Figure 2(b).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CommMode(str, enum.Enum):
    """Blocking vs non-blocking (overlapped) communication."""

    BLOCKING = "blocking"
    NONBLOCKING = "nonblocking"


#: Sender-side cost of posting a non-blocking send, as a fraction of the
#: full transfer time. Captures MPI_Isend descriptor setup; the payload
#: itself moves concurrently with computation.
NONBLOCKING_SENDER_SHARE = 0.1


@dataclass(frozen=True)
class NetworkModel:
    """Point-to-point link characteristics shared by all node pairs.

    Attributes:
        bandwidth_bytes_per_s: link bandwidth. Default is the paper's
            100 Gb/s fabric derated by the dataset scale factor (see
            ``repro.cluster.node``) so payload transfer times keep their
            full-scale proportion to compute times. Latency is *not*
            derated: message counts per query are scale-invariant.
        latency_s: per-message latency (switch + software stack).
        mode: blocking or non-blocking sends.
    """

    bandwidth_bytes_per_s: float = 100e9 / 8 / 50.0
    latency_s: float = 3e-6
    mode: CommMode = CommMode.NONBLOCKING

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")

    def transfer_time(self, nbytes: int) -> float:
        """End-to-end time for one message of ``nbytes`` payload."""
        if nbytes < 0:
            raise ValueError(f"message size must be non-negative, got {nbytes}")
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s

    def sender_busy_time(self, nbytes: int) -> float:
        """Time the *sender* is occupied by the transfer.

        Blocking sends occupy the sender for the full transfer;
        non-blocking sends only for the injection overhead.
        """
        full = self.transfer_time(nbytes)
        if self.mode is CommMode.BLOCKING:
            return full
        return full * NONBLOCKING_SENDER_SHARE

    def with_mode(self, mode: CommMode) -> "NetworkModel":
        """Copy of this model with a different communication mode."""
        return NetworkModel(
            bandwidth_bytes_per_s=self.bandwidth_bytes_per_s,
            latency_s=self.latency_s,
            mode=mode,
        )
