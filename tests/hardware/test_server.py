"""Tests of server presets."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.gpu import RTX_2080TI, RTX_A6000
from repro.hardware.interconnect import PCIE_3, PCIE_4
from repro.hardware.server import (
    ServerSpec,
    alternative_2080ti_server,
    default_a6000_server,
    get_server,
)


class TestPresets:
    def test_default_matches_table1(self):
        server = default_a6000_server()
        assert server.num_devices == 4
        assert server.gpu(0) is RTX_A6000
        assert server.interconnect is PCIE_4
        assert "EPYC" in server.host.name

    def test_alternative_matches_table1(self):
        server = alternative_2080ti_server()
        assert server.num_devices == 4
        assert server.gpu(0) is RTX_2080TI
        assert server.interconnect is PCIE_3
        assert "Xeon" in server.host.name

    def test_custom_gpu_count(self):
        assert default_a6000_server(8).num_devices == 8

    def test_lookup(self):
        assert get_server("a6000").gpu(0) is RTX_A6000
        assert get_server("2080ti").gpu(0) is RTX_2080TI
        with pytest.raises(ConfigurationError):
            get_server("tpu")

    def test_invalid_gpu_count(self):
        with pytest.raises(ConfigurationError):
            default_a6000_server(0)


class TestServerSpec:
    def test_device_bounds_checked(self):
        server = default_a6000_server()
        with pytest.raises(ConfigurationError):
            server.gpu(4)

    def test_cost_model_uses_gpu(self):
        server = default_a6000_server()
        assert server.cost_model().gpu is RTX_A6000

    def test_empty_server_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerSpec(name="bad", gpus=(), interconnect=PCIE_4, host=default_a6000_server().host)

    def test_describe(self):
        assert "A6000" in default_a6000_server().describe()
