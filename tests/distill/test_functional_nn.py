"""Tests of the conv/pool/BN primitives and the module library."""

import numpy as np
import pytest

from repro.distill import functional as F
from repro.distill.nn import (
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    ReLU,
    Sequential,
    conv_bn_relu,
    dsconv_bn_relu,
)
from repro.distill.tensor import Tensor
from repro.errors import ShapeError


def _numerical_grad(fn, array, eps=1e-6):
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        upper = fn()
        flat[index] = original - eps
        lower = fn()
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * eps)
    return grad


class TestConvPrimitives:
    def test_conv2d_matches_manual_result(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        weight = Tensor(np.ones((1, 1, 3, 3)))
        out = F.conv2d(x, weight, stride=1, padding=1)
        assert out.shape == (1, 1, 3, 3)
        assert out.numpy()[0, 0, 1, 1] == pytest.approx(9.0)
        assert out.numpy()[0, 0, 0, 0] == pytest.approx(4.0)

    def test_conv2d_gradcheck(self):
        rng = np.random.default_rng(0)
        x_data = rng.normal(size=(2, 3, 5, 5))
        w_data = rng.normal(size=(4, 3, 3, 3))

        def loss_value():
            return float(
                F.conv2d(Tensor(x_data), Tensor(w_data), stride=1, padding=1).numpy().sum()
            )

        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        F.conv2d(x, w, stride=1, padding=1).sum().backward()
        assert np.allclose(w.grad, _numerical_grad(loss_value, w_data), atol=1e-4)
        assert np.allclose(x.grad, _numerical_grad(loss_value, x_data), atol=1e-4)

    def test_depthwise_conv_gradcheck(self):
        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(2, 4, 5, 5))
        w_data = rng.normal(size=(4, 1, 3, 3))

        def loss_value():
            return float(
                F.depthwise_conv2d(Tensor(x_data), Tensor(w_data), padding=1).numpy().sum()
            )

        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        F.depthwise_conv2d(x, w, padding=1).sum().backward()
        assert np.allclose(w.grad, _numerical_grad(loss_value, w_data), atol=1e-4)
        assert np.allclose(x.grad, _numerical_grad(loss_value, x_data), atol=1e-4)

    def test_conv_shape_validation(self):
        with pytest.raises(ShapeError):
            F.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))
        with pytest.raises(ShapeError):
            F.depthwise_conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 1, 3, 3))))

    def test_strided_conv_output_size(self):
        out = F.conv2d(Tensor(np.ones((1, 2, 8, 8))), Tensor(np.ones((4, 2, 3, 3))), stride=2, padding=1)
        assert out.shape == (1, 4, 4, 4)


class TestPoolingAndNorm:
    def test_global_avg_pool_value_and_grad(self):
        x = Tensor(np.arange(8, dtype=float).reshape(1, 2, 2, 2), requires_grad=True)
        out = F.global_avg_pool(x)
        assert out.shape == (1, 2)
        out.sum().backward()
        assert np.allclose(x.grad, 0.25)

    def test_batch_norm_normalises(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(3.0, 2.0, size=(8, 4, 5, 5)))
        out, mean, var = F.batch_norm2d(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        normalised = out.numpy()
        assert np.allclose(normalised.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        assert np.allclose(normalised.std(axis=(0, 2, 3)), 1.0, atol=1e-3)
        assert mean.shape == (4,) and var.shape == (4,)


class TestModules:
    def test_linear_forward_shape(self):
        layer = Linear(8, 4)
        out = layer(Tensor(np.ones((2, 8))))
        assert out.shape == (2, 4)

    def test_module_parameter_registry(self):
        model = Sequential(Conv2d(3, 8, 3), BatchNorm2d(8), ReLU(), Flatten(), Linear(8 * 4 * 4, 2))
        names = [name for name, _ in model.named_parameters()]
        assert any("weight" in name for name in names)

    def test_state_dict_is_a_snapshot(self):
        model = conv_bn_relu(3, 4)
        state = model.state_dict()
        assert list(state) == [name for name, _ in model.named_parameters()]
        for parameter in model.parameters():
            parameter.data += 1.0
        for name, parameter in model.named_parameters():
            assert np.allclose(parameter.data, state[name] + 1.0)

    def test_depthwise_module_keeps_channels(self):
        layer = DepthwiseConv2d(4, 3, stride=2)
        assert layer.weight.shape == (4, 1, 3, 3)
        assert [name for name, _ in layer.named_parameters()] == ["weight"]
        out = layer(Tensor(np.ones((2, 4, 8, 8))))
        assert out.shape == (2, 4, 4, 4)

    def test_train_eval_propagates(self):
        model = Sequential(conv_bn_relu(3, 4), dsconv_bn_relu(4, 8))
        model.eval()
        assert not model[0].training
        model.train()
        assert model[1].training

    def test_batchnorm_eval_uses_running_stats(self):
        bn = BatchNorm2d(3)
        x = Tensor(np.random.default_rng(0).normal(2.0, 1.0, size=(16, 3, 4, 4)))
        bn(x)  # updates running stats in train mode
        bn.eval()
        out = bn(Tensor(np.zeros((2, 3, 4, 4))))
        assert out.shape == (2, 3, 4, 4)

    def test_sequential_and_pool_modules(self):
        model = Sequential(Conv2d(3, 4, 3), GlobalAvgPool())
        out = model(Tensor(np.ones((2, 3, 8, 8))))
        assert out.shape == (2, 4)
        assert len(model) == 2

    def test_dsconv_unit_output_channels(self):
        unit = dsconv_bn_relu(4, 8)
        out = unit(Tensor(np.ones((1, 4, 6, 6))))
        assert out.shape == (1, 8, 6, 6)
