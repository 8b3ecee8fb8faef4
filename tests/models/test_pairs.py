"""Tests of teacher/student pairing."""

import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.models.mobilenetv2 import build_mobilenetv2
from repro.models.pairs import (
    DistillationPair,
    build_compression_pair,
    build_nas_pair,
    build_pair,
)
from repro.models.vgg import build_vgg16


class TestBuildPairs:
    def test_nas_pair_has_two_rounds(self):
        pair = build_nas_pair("cifar10")
        assert pair.task == "nas"
        assert pair.student_rounds_per_step == 2
        assert pair.num_blocks == 6

    def test_compression_pair_has_one_round(self):
        pair = build_compression_pair("cifar10")
        assert pair.task == "compression"
        assert pair.student_rounds_per_step == 1

    def test_dispatch(self):
        assert build_pair("nas", "imagenet").teacher.name.startswith("MobileNetV2")
        assert build_pair("compression", "cifar10").teacher.name.startswith("VGG16")
        with pytest.raises(ConfigurationError):
            build_pair("segmentation", "cifar10")

    def test_describe_mentions_task_and_dataset(self):
        text = build_nas_pair("cifar10").describe()
        assert "nas" in text and "cifar10" in text


class TestPairValidation:
    def test_mismatched_block_count_rejected(self):
        teacher = build_mobilenetv2("cifar10")
        student = build_vgg16("cifar10")
        # Same block count (6) but incompatible shapes at every boundary.
        with pytest.raises(ShapeError):
            DistillationPair(
                task="nas", teacher=teacher, student=student, dataset="cifar10"
            )

    def test_bad_task_rejected(self):
        teacher = build_mobilenetv2("cifar10")
        with pytest.raises(ConfigurationError):
            DistillationPair(task="foo", teacher=teacher, student=teacher, dataset="cifar10")

    def test_bad_rounds_rejected(self):
        teacher = build_mobilenetv2("cifar10")
        with pytest.raises(ConfigurationError):
            DistillationPair(
                task="nas",
                teacher=teacher,
                student=teacher,
                dataset="cifar10",
                student_rounds_per_step=0,
            )

    def test_self_pair_is_valid(self):
        teacher = build_mobilenetv2("cifar10")
        pair = DistillationPair(task="nas", teacher=teacher, student=teacher, dataset="cifar10")
        assert pair.input_shape == (3, 32, 32)
