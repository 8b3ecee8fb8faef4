"""Tests of the four paper architectures against Table I / Table II values."""

import pytest

from repro.errors import ConfigurationError
from repro.models.dsconv import build_dsconv_student
from repro.models.mobilenetv2 import build_mobilenetv2
from repro.models.proxylessnas import build_proxylessnas_supernet, searched_model_macs
from repro.models.vgg import build_vgg16


class TestMobileNetV2:
    def test_cifar_params_match_paper(self):
        # Table II: MobileNetV2 teacher on CIFAR-10 has 2.24 M parameters.
        teacher = build_mobilenetv2("cifar10")
        assert teacher.params == pytest.approx(2.24e6, rel=0.05)

    def test_imagenet_params_match_paper(self):
        # Table II: MobileNetV2 teacher on ImageNet has 3.50 M parameters.
        teacher = build_mobilenetv2("imagenet")
        assert teacher.params == pytest.approx(3.50e6, rel=0.05)

    def test_cifar_macs_match_paper(self):
        # Table II reports 87.98 M FLOPs (MAC convention) for CIFAR-10.
        teacher = build_mobilenetv2("cifar10")
        assert teacher.macs == pytest.approx(88e6, rel=0.15)

    def test_imagenet_macs_match_paper(self):
        # Table II reports 300.77 M FLOPs (MAC convention) for ImageNet.
        teacher = build_mobilenetv2("imagenet")
        assert teacher.macs == pytest.approx(300e6, rel=0.15)

    def test_six_blocks(self):
        assert build_mobilenetv2("cifar10").num_blocks == 6

    def test_imagenet_block0_has_largest_spatial_activations(self):
        teacher = build_mobilenetv2("imagenet")
        first = teacher.block(0).activation_bytes_per_sample
        others = [teacher.block(i).activation_bytes_per_sample for i in range(1, 6)]
        assert first > max(others)

    def test_output_is_classifier(self):
        assert build_mobilenetv2("cifar10").blocks[-1].out_shape == (10,)
        assert build_mobilenetv2("imagenet").blocks[-1].out_shape == (1000,)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            build_mobilenetv2("mnist")

    def test_unsupported_block_count_rejected(self):
        with pytest.raises(ConfigurationError):
            build_mobilenetv2("cifar10", num_blocks=4)


class TestProxylessNASSupernet:
    def test_block_boundaries_match_teacher(self):
        teacher = build_mobilenetv2("cifar10")
        student = build_proxylessnas_supernet("cifar10")
        assert student.num_blocks == teacher.num_blocks
        for index in range(teacher.num_blocks):
            assert student.block(index).in_shape == teacher.block(index).in_shape
            assert student.block(index).out_shape == teacher.block(index).out_shape

    def test_supernet_heavier_than_single_path(self):
        student = build_proxylessnas_supernet("cifar10")
        assert searched_model_macs(student) < student.macs

    def test_contains_mixed_ops(self):
        student = build_proxylessnas_supernet("cifar10")
        kinds = {layer.kind for block in student.blocks for layer in block.layers}
        assert "mixed" in kinds

    def test_candidate_count_matches_table1(self):
        # Table I: kernel sizes {3, 5, 7} x expansion ratios {3, 6} = 6 candidates.
        student = build_proxylessnas_supernet("cifar10")
        mixed = next(
            layer
            for block in student.blocks
            for layer in block.layers
            if layer.kind == "mixed"
        )
        assert mixed.metadata["num_candidates"] == 6

    def test_empty_search_space_rejected(self):
        with pytest.raises(ConfigurationError):
            build_proxylessnas_supernet("cifar10", kernel_sizes=())


class TestVGG16:
    def test_cifar_params_match_paper(self):
        # Table II: VGG-16 teacher on CIFAR-10 has 14.72 M parameters.
        teacher = build_vgg16("cifar10")
        assert teacher.params == pytest.approx(14.72e6, rel=0.05)

    def test_imagenet_params_match_paper(self):
        # Table II: VGG-16 teacher on ImageNet has 138.36 M parameters.
        teacher = build_vgg16("imagenet")
        assert teacher.params == pytest.approx(138.36e6, rel=0.02)

    def test_imagenet_macs_match_paper(self):
        # Table II: 30.98 B FLOPs; our MAC count should be about half of that.
        teacher = build_vgg16("imagenet")
        assert teacher.macs == pytest.approx(15.5e9, rel=0.1)

    def test_six_blocks_five_stages_plus_classifier(self):
        teacher = build_vgg16("cifar10")
        assert teacher.num_blocks == 6
        assert teacher.block(5).out_shape == (10,)


class TestDSConvStudent:
    def test_boundaries_match_vgg(self):
        teacher = build_vgg16("imagenet")
        student = build_dsconv_student("imagenet")
        assert student.num_blocks == teacher.num_blocks
        for index in range(teacher.num_blocks):
            assert student.block(index).in_shape == teacher.block(index).in_shape
            assert student.block(index).out_shape == teacher.block(index).out_shape

    def test_student_convs_cheaper_than_teacher(self):
        teacher = build_vgg16("cifar10")
        student = build_dsconv_student("cifar10")
        # Depthwise-separable replacements reduce conv MACs by roughly 8-9x.
        teacher_conv_macs = sum(
            layer.macs
            for block in teacher.blocks[:5]
            for layer in block.layers
            if layer.kind == "conv"
        )
        student_conv_macs = sum(
            layer.macs
            for block in student.blocks[:5]
            for layer in block.layers
            if layer.kind in ("conv", "dwconv")
        )
        assert student_conv_macs < teacher_conv_macs / 4

    def test_contains_depthwise_layers(self):
        student = build_dsconv_student("cifar10")
        kinds = {layer.kind for block in student.blocks for layer in block.layers}
        assert "dwconv" in kinds
