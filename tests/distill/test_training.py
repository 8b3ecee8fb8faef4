"""Tests of losses, SGD, the supernet mixed op, and the datasets."""

import numpy as np
import pytest

from repro.distill.datasets import SyntheticImageDataset
from repro.distill.loss import blockwise_distillation_loss, mse_loss
from repro.distill.nn import Linear, Sequential, conv_bn_relu
from repro.distill.optim import SGD
from repro.distill.supernet import (
    MixedOp,
    architecture_parameters,
    derive_architecture,
    weight_parameters,
)
from repro.distill.tensor import Tensor
from repro.errors import ConfigurationError, ShapeError


class TestLosses:
    def test_mse_zero_for_identical(self):
        x = Tensor(np.ones((2, 3)))
        assert mse_loss(x, Tensor(np.ones((2, 3)))).item() == pytest.approx(0.0)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    def test_distillation_loss_does_not_backprop_into_teacher(self):
        teacher_out = Tensor(np.ones((2, 3)), requires_grad=True)
        student_out = Tensor(np.zeros((2, 3)), requires_grad=True)
        blockwise_distillation_loss(student_out, teacher_out).backward()
        assert student_out.grad is not None
        assert teacher_out.grad is None


class TestSGD:
    def test_plain_sgd_step(self):
        parameter = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = SGD([parameter], lr=0.1)
        parameter.grad = np.array([2.0])
        optimizer.step()
        assert parameter.data == pytest.approx([0.8])

    def test_momentum_accumulates(self):
        parameter = Tensor(np.array([0.0]), requires_grad=True)
        optimizer = SGD([parameter], lr=1.0, momentum=0.5)
        for _ in range(2):
            parameter.grad = np.array([1.0])
            optimizer.step()
        # First step: -1.0, second step: -(0.5 * 1 + 1) = -1.5.
        assert parameter.data == pytest.approx([-2.5])

    def test_weight_decay(self):
        parameter = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = SGD([parameter], lr=0.1, weight_decay=1.0)
        parameter.grad = np.array([0.0])
        optimizer.step()
        assert parameter.data == pytest.approx([0.9])

    def test_skips_parameters_without_grad(self):
        parameter = Tensor(np.array([1.0]), requires_grad=True)
        SGD([parameter], lr=0.1).step()
        assert parameter.data == pytest.approx([1.0])

    def test_validation(self):
        parameter = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ConfigurationError):
            SGD([parameter], lr=0.0)
        with pytest.raises(ConfigurationError):
            SGD([parameter], momentum=1.5)
        with pytest.raises(ConfigurationError):
            SGD([], lr=0.1)

    def test_training_reduces_regression_loss(self):
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(32, 4))
        targets = inputs @ rng.normal(size=(4, 2))
        model = Linear(4, 2, rng=rng)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        first_loss = None
        for _ in range(50):
            optimizer.zero_grad()
            loss = mse_loss(model(Tensor(inputs)), Tensor(targets))
            loss.backward()
            optimizer.step()
            if first_loss is None:
                first_loss = loss.item()
        assert loss.item() < 0.2 * first_loss


class TestMixedOp:
    def test_forward_is_convex_combination(self):
        candidates = [Linear(3, 3, bias=False), Linear(3, 3, bias=False)]
        mixed = MixedOp(candidates)
        x = Tensor(np.ones((2, 3)))
        out = mixed(x)
        probabilities = mixed.selection_probabilities()
        expected = probabilities[0] * candidates[0](x).numpy() + probabilities[1] * candidates[1](
            x
        ).numpy()
        assert np.allclose(out.numpy(), expected)

    def test_parameter_split(self):
        mixed = Sequential(MixedOp([conv_bn_relu(3, 4), conv_bn_relu(3, 4, kernel=1)]))
        arch = architecture_parameters(mixed)
        weights = weight_parameters(mixed)
        assert len(arch) == 1
        assert len(weights) == len(list(mixed.parameters())) - 1

    def test_architecture_gradient_flows(self):
        mixed = MixedOp([Linear(3, 3, bias=False), Linear(3, 3, bias=False)])
        out = mixed(Tensor(np.ones((2, 3))))
        (out * out).mean().backward()
        assert mixed.alpha.grad is not None

    def test_derive_architecture(self):
        mixed = MixedOp([Linear(3, 3), Linear(3, 3)])
        mixed.alpha.data = np.array([0.1, 2.0])
        assert derive_architecture(Sequential(mixed)) == [1]
        assert mixed.selected_index() == 1

    def test_empty_candidates_rejected(self):
        with pytest.raises(ConfigurationError):
            MixedOp([])


class TestSyntheticDataset:
    def test_deterministic_given_seed(self):
        a = SyntheticImageDataset(num_samples=16, seed=7)
        b = SyntheticImageDataset(num_samples=16, seed=7)
        images_a, labels_a = a.batch(0, 4)
        images_b, labels_b = b.batch(0, 4)
        assert np.array_equal(images_a, images_b)
        assert np.array_equal(labels_a, labels_b)

    def test_batches_wrap_around(self):
        dataset = SyntheticImageDataset(num_samples=8)
        images, _ = dataset.batch(6, 4)
        assert images.shape == (4, 3, 8, 8)

    def test_batches_iterator(self):
        dataset = SyntheticImageDataset(num_samples=8)
        batches = list(dataset.batches(batch_size=4, num_batches=3))
        assert len(batches) == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SyntheticImageDataset(num_samples=0)
        with pytest.raises(ConfigurationError):
            SyntheticImageDataset().batch(0, 0)
