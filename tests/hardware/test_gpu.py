"""Tests of the GPU utilization model."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.hardware.cost_model import CostModel
from repro.hardware.gpu import GPUSpec, RTX_2080TI, RTX_A6000, get_gpu
from repro.models.layers import LayerSpec


class TestPresets:
    def test_a6000_capacity_matches_table1(self):
        assert RTX_A6000.mem_capacity_gb == 48.0

    def test_2080ti_capacity(self):
        assert RTX_2080TI.mem_capacity_gb == 11.0

    def test_a6000_faster_than_2080ti(self):
        assert RTX_A6000.peak_fp32_tflops > RTX_2080TI.peak_fp32_tflops

    def test_lookup_by_name(self):
        assert get_gpu("a6000") is RTX_A6000
        assert get_gpu("RTX 2080Ti") is RTX_2080TI
        with pytest.raises(ConfigurationError):
            get_gpu("h100")


class TestEfficiencyCurve:
    def test_zero_work_zero_efficiency(self):
        assert RTX_A6000.work_efficiency(0) == 0.0

    def test_negative_work_rejected(self):
        with pytest.raises(ConfigurationError):
            RTX_A6000.work_efficiency(-1)

    @given(macs=st.floats(min_value=1.0, max_value=1e13))
    def test_efficiency_bounded(self, macs):
        efficiency = RTX_A6000.work_efficiency(macs)
        assert 0.0 < efficiency <= RTX_A6000.max_efficiency

    @given(
        small=st.floats(min_value=1e3, max_value=1e9),
        factor=st.floats(min_value=1.1, max_value=1e3),
    )
    def test_efficiency_monotone_in_work(self, small, factor):
        assert RTX_A6000.work_efficiency(small * factor) >= RTX_A6000.work_efficiency(small)

    def test_half_saturation_point(self):
        half = RTX_A6000.half_saturation_macs
        assert RTX_A6000.work_efficiency(half) == pytest.approx(RTX_A6000.max_efficiency / 2)

    def test_small_gpu_saturates_earlier(self):
        # The paper's Fig. 5 hinges on the A6000 needing more work to fill
        # than the 2080Ti: at the same modest kernel size the 2080Ti achieves
        # a larger fraction of its own peak.
        work = 0.2e9
        a6000_fraction = RTX_A6000.work_efficiency(work) / RTX_A6000.max_efficiency
        ti_fraction = RTX_2080TI.work_efficiency(work) / RTX_2080TI.max_efficiency
        assert ti_fraction > a6000_fraction

    def test_effective_flops_respects_op_cap(self):
        # The per-kind cap applies inside CostModel's roofline: a
        # compute-bound depthwise layer runs slower than a conv layer doing
        # the same work.
        conv = LayerSpec("c", "conv", (1,), (1,), params=0, macs=1e8)
        dwconv = replace(conv, kind="dwconv")
        cost = CostModel(gpu=RTX_A6000)
        assert cost.layer_forward_time(dwconv, 100) > cost.layer_forward_time(conv, 100)

    def test_batch_efficiency_wrapper_monotone(self):
        assert RTX_A6000.batch_efficiency(256) > RTX_A6000.batch_efficiency(64)


class TestValidation:
    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            GPUSpec(name="bad", peak_fp32_tflops=0, mem_bandwidth_gbs=100, mem_capacity_gb=8)
        with pytest.raises(ConfigurationError):
            GPUSpec(
                name="bad",
                peak_fp32_tflops=10,
                mem_bandwidth_gbs=100,
                mem_capacity_gb=8,
                max_efficiency=1.5,
            )
        with pytest.raises(ConfigurationError):
            GPUSpec(
                name="bad",
                peak_fp32_tflops=10,
                mem_bandwidth_gbs=100,
                mem_capacity_gb=8,
                half_saturation_gmacs=0,
            )

    def test_describe(self):
        assert "A6000" in RTX_A6000.describe()
