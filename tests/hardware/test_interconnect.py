"""Tests of the PCIe interconnect model."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.hardware.interconnect import InterconnectSpec, PCIE_3, PCIE_4


class TestTransfer:
    def test_zero_bytes_takes_zero_time(self):
        assert PCIE_4.transfer_time(0) == 0.0

    def test_transfer_includes_latency(self):
        assert PCIE_4.transfer_time(1) >= PCIE_4.latency_s

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            PCIE_4.transfer_time(-1)

    def test_pcie4_faster_than_pcie3(self):
        volume = 100e6
        assert PCIE_4.transfer_time(volume) < PCIE_3.transfer_time(volume)

    @given(
        small=st.floats(min_value=1e3, max_value=1e8),
        factor=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_transfer_monotone(self, small, factor):
        assert PCIE_4.transfer_time(small * factor) >= PCIE_4.transfer_time(small)


class TestCollectives:
    def test_single_device_allreduce_free(self):
        assert PCIE_4.allreduce_time(1e9, 1) == 0.0

    def test_allreduce_grows_with_devices_volume_factor(self):
        volume = 1e8
        two = PCIE_4.allreduce_time(volume, 2)
        four = PCIE_4.allreduce_time(volume, 4)
        assert four > two > 0

    def test_allreduce_less_than_naive_gather(self):
        # Ring all-reduce moves less than (n-1) full buffers per device.
        volume = 1e8
        naive = 3 * PCIE_4.transfer_time(volume)
        assert PCIE_4.allreduce_time(volume, 4) < naive + 3 * PCIE_4.latency_s * 2

    def test_allreduce_invalid_devices(self):
        with pytest.raises(ConfigurationError):
            PCIE_4.allreduce_time(1e6, 0)


    def test_allreduce_matches_the_ring_formula(self):
        # Four devices: 2 * 3 latency-bound steps, 2 * 3/4 of the buffer each.
        expected = 6 * PCIE_4.latency_s + 1.5 * 1e8 / PCIE_4.bandwidth
        assert PCIE_4.allreduce_time(1e8, 4) == pytest.approx(expected)
        assert PCIE_4.allreduce_time(0, 4) == 0.0


class TestBandwidth:
    def test_bandwidth_in_bytes_per_second(self):
        assert PCIE_4.bandwidth == pytest.approx(25e9)
        assert PCIE_3.bandwidth == pytest.approx(12e9)

    def test_transfer_is_latency_plus_volume_over_bandwidth(self):
        assert PCIE_4.transfer_time(25e9) == pytest.approx(1.0 + PCIE_4.latency_s)
        link = InterconnectSpec(name="ideal", bandwidth_gbs=1.0, latency_s=0.0)
        assert link.transfer_time(5e8) == pytest.approx(0.5)


class TestValidation:
    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            InterconnectSpec(name="bad", bandwidth_gbs=0.0)

    def test_describe(self):
        assert "PCIe" in PCIE_3.describe()
