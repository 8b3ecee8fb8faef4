"""Tests of the roofline cost model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.hardware.cost_model import CostModel
from repro.hardware.gpu import RTX_2080TI, RTX_A6000
from repro.models import layers as L
from repro.models.blocks import BlockSpec
from repro.models.mobilenetv2 import build_mobilenetv2


@pytest.fixture(scope="module")
def a6000_cost():
    return CostModel(gpu=RTX_A6000)


@pytest.fixture(scope="module")
def conv_layer():
    return L.conv2d("c", (32, 56, 56), 64, kernel=3)


@pytest.fixture(scope="module")
def small_block(conv_layer):
    act = L.relu("r", conv_layer.out_shape)
    return BlockSpec(name="b", index=0, layers=(conv_layer, act))


class TestLayerTimes:
    def test_zero_batch_is_free(self, a6000_cost, conv_layer):
        assert a6000_cost.layer_forward_time(conv_layer, 0) == 0.0

    def test_negative_batch_rejected(self, a6000_cost, conv_layer):
        with pytest.raises(ConfigurationError):
            a6000_cost.layer_forward_time(conv_layer, -1)

    def test_forward_time_positive(self, a6000_cost, conv_layer):
        assert a6000_cost.layer_forward_time(conv_layer, 32) > 0

    def test_backward_slower_than_forward(self, a6000_cost, conv_layer):
        forward = a6000_cost.layer_forward_time(conv_layer, 64)
        backward = a6000_cost.layer_backward_time(conv_layer, 64)
        assert backward > forward

    @given(batch=st.integers(min_value=1, max_value=512))
    @settings(max_examples=30, deadline=None)
    def test_time_monotone_in_batch(self, batch):
        cost = CostModel(gpu=RTX_A6000)
        layer = L.conv2d("c", (16, 28, 28), 32, kernel=3)
        assert cost.layer_forward_time(layer, batch + 1) >= cost.layer_forward_time(layer, batch)

    def test_sublinear_scaling_at_small_batches(self, a6000_cost):
        # Doubling a small batch should cost less than 2x because utilization
        # improves — the effect that penalises the DP baseline on CIFAR-10.
        layer = L.conv2d("c", (16, 8, 8), 32, kernel=3)
        small = a6000_cost.layer_forward_time(layer, 16)
        double = a6000_cost.layer_forward_time(layer, 32)
        assert double < 2 * small

    def test_slower_gpu_takes_longer(self, conv_layer):
        a6000 = CostModel(gpu=RTX_A6000)
        ti = CostModel(gpu=RTX_2080TI)
        assert ti.layer_forward_time(conv_layer, 256) > a6000.layer_forward_time(conv_layer, 256)


class TestBlockAndNetworkTimes:
    def test_block_time_is_sum_of_layers(self, a6000_cost, small_block):
        expected = sum(
            a6000_cost.layer_forward_time(layer, 32) for layer in small_block.layers
        )
        assert a6000_cost.block_forward_time(small_block, 32) == pytest.approx(expected)

    def test_weight_update_independent_of_batch(self, a6000_cost, small_block):
        assert a6000_cost.weight_update_time(small_block, 1) == pytest.approx(
            a6000_cost.weight_update_time(small_block, 512)
        )

    def test_imagenet_block0_dominates(self, a6000_cost):
        # The load imbalance that motivates AHD (paper §VII-A): at ImageNet
        # resolution, block 0 is the most expensive teacher block.
        network = build_mobilenetv2("imagenet")
        times = [
            a6000_cost.block_forward_time(network.block(index), 256)
            for index in range(network.num_blocks)
        ]
        assert times[0] == max(times)
