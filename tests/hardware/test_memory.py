"""Tests of the per-device memory model."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.memory import MemoryModel, TRAINABLE_STATE_COPIES
from repro.models import layers as L
from repro.models.blocks import BlockSpec
from repro.models.mobilenetv2 import build_mobilenetv2


@pytest.fixture(scope="module")
def memory_model():
    return MemoryModel()


@pytest.fixture(scope="module")
def block():
    conv = L.conv2d("c", (16, 32, 32), 32, kernel=3)
    act = L.relu("r", conv.out_shape)
    return BlockSpec(name="b", index=0, layers=(conv, act))


class TestComponents:
    def test_student_state_includes_three_parameter_copies(self, memory_model, block):
        zero_batch = memory_model.student_block_bytes(block, 0)
        assert zero_batch == TRAINABLE_STATE_COPIES * block.weight_bytes

    def test_student_activations_scale_with_batch(self, memory_model, block):
        small = memory_model.student_block_bytes(block, 32)
        large = memory_model.student_block_bytes(block, 64)
        assert large > small

    def test_negative_batch_rejected(self, memory_model, block):
        with pytest.raises(ConfigurationError):
            memory_model.student_block_bytes(block, -1)


class TestDevicePeak:
    def test_peak_includes_baseline(self, memory_model, block):
        peak = memory_model.device_peak_bytes([block], [block], 32)
        assert peak > memory_model.framework_baseline_bytes

    def test_more_blocks_more_memory(self, memory_model):
        network = build_mobilenetv2("cifar10")
        one = memory_model.device_peak_bytes([network.block(0)], [network.block(0)], 64)
        two = memory_model.device_peak_bytes(
            list(network.blocks[:2]), list(network.blocks[:2]), 64
        )
        assert two > one

    def test_early_imagenet_blocks_cost_more_than_late(self, memory_model):
        # Fig. 7's shape: lower-indexed blocks have larger feature maps.
        network = build_mobilenetv2("imagenet")
        early = memory_model.device_peak_bytes([network.block(0)], [network.block(0)], 64)
        late = memory_model.device_peak_bytes([network.block(4)], [network.block(4)], 64)
        assert early > late

    def test_resident_teacher_blocks_add_parameters(self, memory_model):
        network = build_mobilenetv2("cifar10")
        executed = [network.block(2)]
        without = memory_model.device_peak_bytes(executed, [network.block(2)], 64)
        with_resident = memory_model.device_peak_bytes(
            executed, [network.block(2)], 64, resident_teacher_blocks=list(network.blocks[:3])
        )
        assert with_resident > without
