"""Unit tests for repro.cluster.network."""

import pytest

from repro.cluster.network import (
    NONBLOCKING_SENDER_SHARE,
    CommMode,
    NetworkModel,
)


class TestNetworkModel:
    def test_transfer_time_formula(self):
        net = NetworkModel(bandwidth_bytes_per_s=1e6, latency_s=1e-3)
        assert net.transfer_time(1000) == pytest.approx(1e-3 + 1e-3)

    def test_zero_bytes_costs_latency(self):
        net = NetworkModel(bandwidth_bytes_per_s=1e6, latency_s=5e-6)
        assert net.transfer_time(0) == pytest.approx(5e-6)

    def test_negative_bytes_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            NetworkModel().transfer_time(-1)

    def test_invalid_bandwidth_raises(self):
        with pytest.raises(ValueError, match="bandwidth"):
            NetworkModel(bandwidth_bytes_per_s=0)

    def test_invalid_latency_raises(self):
        with pytest.raises(ValueError, match="latency"):
            NetworkModel(latency_s=-1.0)

    def test_blocking_sender_pays_full_transfer(self):
        net = NetworkModel(
            bandwidth_bytes_per_s=1e6, latency_s=1e-3, mode=CommMode.BLOCKING
        )
        assert net.sender_busy_time(1000) == pytest.approx(
            net.transfer_time(1000)
        )

    def test_nonblocking_sender_pays_injection_share(self):
        net = NetworkModel(
            bandwidth_bytes_per_s=1e6, latency_s=1e-3, mode=CommMode.NONBLOCKING
        )
        assert net.sender_busy_time(1000) == pytest.approx(
            net.transfer_time(1000) * NONBLOCKING_SENDER_SHARE
        )

    def test_monotone_in_size(self):
        net = NetworkModel()
        assert net.transfer_time(2000) > net.transfer_time(1000)
