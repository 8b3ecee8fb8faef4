"""Unit tests for network specifications."""

import pytest

from repro.errors import ShapeError
from repro.models import layers as L
from repro.models.blocks import BlockSpec
from repro.models.network import NetworkSpec


def _make_network(num_blocks=3):
    blocks = []
    shape = (3, 16, 16)
    for index in range(num_blocks):
        conv = L.conv2d(f"b{index}.conv", shape, 8 * (index + 1), kernel=3)
        act = L.relu(f"b{index}.relu", conv.out_shape)
        blocks.append(BlockSpec(name=f"b{index}", index=index, layers=(conv, act)))
        shape = conv.out_shape
    return NetworkSpec(name="toy", blocks=tuple(blocks), input_shape=(3, 16, 16), num_classes=10)


class TestValidation:
    def test_valid_network(self):
        network = _make_network()
        assert network.num_blocks == 3
        assert len(network) == 3

    def test_first_block_must_match_input_shape(self):
        network = _make_network()
        with pytest.raises(ShapeError):
            NetworkSpec(
                name="bad",
                blocks=network.blocks,
                input_shape=(1, 16, 16),
                num_classes=10,
            )

    def test_block_indices_must_be_sequential(self):
        network = _make_network()
        shuffled = (network.blocks[0], network.blocks[2].with_index(1).with_index(2))
        with pytest.raises(ShapeError):
            NetworkSpec(name="bad", blocks=shuffled, input_shape=(3, 16, 16), num_classes=10)

    def test_no_blocks_rejected(self):
        with pytest.raises(ShapeError):
            NetworkSpec(name="bad", blocks=(), input_shape=(3, 16, 16), num_classes=10)


class TestQueries:
    def test_block_lookup_and_bounds(self):
        network = _make_network()
        assert network.block(1).index == 1
        with pytest.raises(IndexError):
            network.block(3)
        with pytest.raises(IndexError):
            network.block(-1)

    def test_aggregates(self):
        network = _make_network()
        assert network.params == sum(block.params for block in network.blocks)
        assert network.macs == sum(block.macs for block in network.blocks)
        assert network.flops == 2 * network.macs

    def test_summary_contains_block_lines(self):
        network = _make_network()
        summary = network.summary()
        assert "toy" in summary
        assert summary.count("block[") == network.num_blocks
