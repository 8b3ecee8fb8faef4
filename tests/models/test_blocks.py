"""Unit tests for block specifications."""

import pytest

from repro.errors import ShapeError
from repro.models import layers as L
from repro.models.blocks import BlockSpec


def _simple_chain(channels=(3, 8, 16), spatial=16):
    layer_list = []
    shape = (channels[0], spatial, spatial)
    for index, out_channels in enumerate(channels[1:]):
        conv = L.conv2d(f"c{index}", shape, out_channels, kernel=3)
        layer_list.append(conv)
        layer_list.append(L.relu(f"r{index}", conv.out_shape))
        shape = conv.out_shape
    return tuple(layer_list)


class TestBlockSpec:
    def test_aggregates_match_layer_sums(self):
        layer_chain = _simple_chain()
        block = BlockSpec(name="b", index=0, layers=layer_chain)
        assert block.macs == sum(layer.macs for layer in layer_chain)
        assert block.params == sum(layer.params for layer in layer_chain)
        assert block.flops == 2 * block.macs
        assert block.num_layers == len(layer_chain)

    def test_shapes(self):
        block = BlockSpec(name="b", index=0, layers=_simple_chain())
        assert block.in_shape == (3, 16, 16)
        assert block.out_shape == (16, 16, 16)

    def test_boundary_activation_bytes(self):
        layer_chain = _simple_chain()
        block = BlockSpec(name="b", index=0, layers=layer_chain)
        # fp32 input (3x16x16) and output (16x16x16) activations.
        assert block.input_bytes_per_sample == 3 * 16 * 16 * 4
        assert block.output_bytes_per_sample == 16 * 16 * 16 * 4
        assert block.input_bytes_per_sample == layer_chain[0].in_bytes

    def test_activation_bytes_include_input_and_all_outputs(self):
        layer_chain = _simple_chain()
        block = BlockSpec(name="b", index=0, layers=layer_chain)
        expected = layer_chain[0].in_bytes + sum(layer.out_bytes for layer in layer_chain)
        assert block.activation_bytes_per_sample == expected

    def test_peak_activation_at_least_output(self):
        block = BlockSpec(name="b", index=0, layers=_simple_chain())
        assert block.peak_activation_bytes_per_sample >= block.output_bytes_per_sample

    def test_empty_block_rejected(self):
        with pytest.raises(ShapeError):
            BlockSpec(name="b", index=0, layers=())

    def test_mismatched_chain_rejected(self):
        conv = L.conv2d("c", (3, 8, 8), 4, kernel=3)
        bad = L.relu("r", (5, 8, 8))
        with pytest.raises(ShapeError):
            BlockSpec(name="b", index=0, layers=(conv, bad))

    def test_with_index(self):
        block = BlockSpec(name="b", index=0, layers=_simple_chain())
        renumbered = block.with_index(3)
        assert renumbered.index == 3
        assert renumbered.layers == block.layers

    def test_describe_mentions_name(self):
        block = BlockSpec(name="stem", index=0, layers=_simple_chain())
        assert "stem" in block.describe()
