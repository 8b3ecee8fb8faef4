"""Unit tests for layer specifications and their factories."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ShapeError
from repro.models import layers as L


class TestConvOutputSize:
    def test_same_padding_stride_one_preserves_size(self):
        assert L.conv_output_size(32, 3, 1, 1) == 32

    def test_stride_two_halves_size(self):
        assert L.conv_output_size(32, 3, 2, 1) == 16

    def test_no_padding_shrinks(self):
        assert L.conv_output_size(32, 3, 1, 0) == 30

    def test_invalid_raises(self):
        with pytest.raises(ShapeError):
            L.conv_output_size(2, 5, 1, 0)

    @given(
        size=st.integers(min_value=4, max_value=256),
        kernel=st.sampled_from([1, 3, 5, 7]),
        stride=st.integers(min_value=1, max_value=3),
    )
    def test_same_padding_never_grows_beyond_input(self, size, kernel, stride):
        out = L.conv_output_size(size, kernel, stride, kernel // 2)
        assert 1 <= out <= size


class TestConv2d:
    def test_shapes_and_params(self):
        conv = L.conv2d("c", (3, 32, 32), 16, kernel=3, stride=1)
        assert conv.out_shape == (16, 32, 32)
        assert conv.params == 16 * 3 * 3 * 3
        assert conv.macs == 16 * 3 * 9 * 32 * 32

    def test_stride_two_spatial(self):
        conv = L.conv2d("c", (3, 32, 32), 16, kernel=3, stride=2)
        assert conv.out_shape == (16, 16, 16)

    def test_grouped_conv_params_divided(self):
        full = L.conv2d("c", (8, 16, 16), 8, kernel=3, groups=1)
        grouped = L.conv2d("c", (8, 16, 16), 8, kernel=3, groups=8)
        assert grouped.params == full.params // 8
        assert grouped.macs == full.macs / 8

    def test_bias_adds_out_channels(self):
        without = L.conv2d("c", (3, 8, 8), 4, kernel=1, bias=False)
        with_bias = L.conv2d("c", (3, 8, 8), 4, kernel=1, bias=True)
        assert with_bias.params == without.params + 4

    def test_bad_groups_raise(self):
        with pytest.raises(ShapeError):
            L.conv2d("c", (3, 8, 8), 4, kernel=3, groups=2)

    def test_bad_input_shape_raises(self):
        with pytest.raises(ShapeError):
            L.conv2d("c", (3, 8), 4, kernel=3)


class TestDepthwiseAndPointwise:
    def test_depthwise_kind_and_channels(self):
        dw = L.depthwise_conv2d("d", (16, 8, 8), kernel=3)
        assert dw.kind == "dwconv"
        assert dw.out_shape == (16, 8, 8)
        assert dw.params == 16 * 9

    def test_pointwise_is_1x1(self):
        pw = L.pointwise_conv2d("p", (16, 8, 8), 32)
        assert pw.out_shape == (32, 8, 8)
        assert pw.params == 16 * 32


class TestOtherFactories:
    def test_linear(self):
        fc = L.linear("fc", 128, 10)
        assert fc.params == 128 * 10 + 10
        assert fc.out_shape == (10,)

    def test_batch_norm_two_params_per_channel(self):
        bn = L.batch_norm("bn", (16, 8, 8))
        assert bn.params == 32
        assert bn.out_shape == (16, 8, 8)

    def test_relu_no_params(self):
        act = L.relu("r", (16, 8, 8))
        assert act.params == 0

    def test_max_pool_halves(self):
        pool = L.max_pool("p", (16, 8, 8), kernel=2)
        assert pool.out_shape == (16, 4, 4)

    def test_global_avg_pool_collapses_spatial(self):
        gap = L.global_avg_pool("g", (16, 8, 8))
        assert gap.out_shape == (16,)

    def test_flatten(self):
        flat = L.flatten("f", (4, 3, 3))
        assert flat.out_shape == (36,)

    def test_add_residual_shape_preserved(self):
        add = L.add_residual("a", (16, 8, 8))
        assert add.in_shape == add.out_shape


class TestDerivedQuantities:
    def test_flops_is_twice_macs(self):
        conv = L.conv2d("c", (3, 8, 8), 4, kernel=3)
        assert conv.flops == 2 * conv.macs

    def test_bytes_are_four_per_element(self):
        conv = L.conv2d("c", (3, 8, 8), 4, kernel=3)
        assert conv.in_bytes == 3 * 8 * 8 * 4
        assert conv.out_bytes == 4 * 8 * 8 * 4
        assert conv.weight_bytes == conv.params * 4

    def test_element_counts_follow_shapes(self):
        conv = L.conv2d("c", (3, 8, 8), 4, kernel=3, stride=2)
        assert conv.in_elems == 3 * 8 * 8
        assert conv.out_elems == 4 * 4 * 4
        flat = L.flatten("f", (16, 2, 2))
        assert flat.in_elems == flat.out_elems == 64

    def test_totals_sum_over_layers(self):
        conv = L.conv2d("c", (3, 8, 8), 4, kernel=3)
        norm = L.batch_norm("n", conv.out_shape)
        act = L.relu("r", conv.out_shape)
        chain = [conv, norm, act]
        assert L.total_macs(chain) == conv.macs + norm.macs + act.macs
        assert L.total_params(chain) == conv.params + 2 * 4
        assert isinstance(L.total_params(chain), int)
        assert L.total_macs([]) == 0.0


class TestHelpers:
    @given(channels=st.integers(min_value=1, max_value=512),
           mult=st.floats(min_value=0.25, max_value=2.0))
    def test_scaled_channels_divisible_by_eight(self, channels, mult):
        scaled = L.scaled_channels(channels, mult)
        assert scaled % 8 == 0
        assert scaled >= 0.9 * channels * mult

    def test_human_flops(self):
        assert L.human_flops(87.98e6) == "87.98 M"
        assert L.human_flops(30.98e9) == "30.98 B"

    def test_human_params(self):
        assert L.human_params(2.24e6) == "2.24 M"

    def test_check_chain_accepts_valid(self):
        conv = L.conv2d("c", (3, 8, 8), 4, kernel=3)
        act = L.relu("r", conv.out_shape)
        L.check_chain([conv, act])

    def test_check_chain_rejects_mismatch(self):
        conv = L.conv2d("c", (3, 8, 8), 4, kernel=3)
        bad = L.relu("r", (5, 8, 8))
        with pytest.raises(ShapeError):
            L.check_chain([conv, bad])
