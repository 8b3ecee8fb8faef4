"""Tests of the autograd engine, including numerical gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.distill.tensor import Tensor, as_tensor, stack
from repro.errors import ShapeError


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        upper = fn(x)
        flat[index] = original - eps
        lower = fn(x)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * eps)
    return grad


class TestBasics:
    def test_item_and_numpy(self):
        tensor = Tensor([[3.0]])
        assert tensor.item() == 3.0
        assert tensor.shape == (1, 1)
        assert tensor.numpy().shape == (1, 1)

    def test_as_tensor_passthrough(self):
        tensor = Tensor([1.0])
        assert as_tensor(tensor) is tensor
        assert isinstance(as_tensor(2.0), Tensor)

    def test_backward_requires_scalar(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (tensor * 2).backward()

    def test_detach_cuts_graph(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        loss = (tensor.detach() * 3).sum()
        loss.backward()
        assert tensor.grad is None

    def test_grad_accumulates_across_backward_calls(self):
        tensor = Tensor([1.0], requires_grad=True)
        (tensor * 2).sum().backward()
        (tensor * 2).sum().backward()
        assert tensor.grad == pytest.approx([4.0])

    def test_zero_grad(self):
        tensor = Tensor([1.0], requires_grad=True)
        (tensor * 2).sum().backward()
        tensor.zero_grad()
        assert tensor.grad is None


class TestGradients:
    def test_add_mul_chain(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        loss = ((a + b) * a).sum()
        loss.backward()
        assert np.allclose(a.grad, 2 * a.data + b.data)
        assert np.allclose(b.grad, a.data)

    def test_matmul_gradients(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        b = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        (a @ b).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 4)) @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ np.ones((2, 4)))

    def test_relu_gradient_masks_negative(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        x.relu().sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0])

    def test_broadcast_add_reduces_grad(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        bias = Tensor(np.zeros(3), requires_grad=True)
        (x + bias).sum().backward()
        assert bias.grad.shape == (3,)
        assert np.allclose(bias.grad, 4.0)

    def test_mean_and_reshape(self):
        x = Tensor(np.arange(6, dtype=float), requires_grad=True)
        x.reshape(2, 3).mean().backward()
        assert np.allclose(x.grad, np.full(6, 1 / 6))

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        probabilities = x.softmax(axis=-1).numpy()
        assert np.allclose(probabilities.sum(axis=-1), 1.0)

    def test_stack_gradient_splits(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        stack([a, b], axis=0).sum().backward()
        assert np.allclose(a.grad, 1.0)
        assert np.allclose(b.grad, 1.0)

    @given(
        data=arrays(np.float64, (3, 2), elements=st.floats(min_value=-2, max_value=2)),
    )
    @settings(max_examples=20, deadline=None)
    def test_sum_of_squares_matches_numerical_gradient(self, data):
        x = Tensor(data.copy(), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        reference = numerical_grad(lambda arr: float((arr * arr).sum()), data.copy())
        assert np.allclose(x.grad, reference, atol=1e-4)

    def test_exp_log_gradients(self):
        x = Tensor([0.5, 1.5], requires_grad=True)
        x.exp().sum().backward()
        assert np.allclose(x.grad, np.exp(x.data))
        y = Tensor([0.5, 1.5], requires_grad=True)
        y.log().sum().backward()
        assert np.allclose(y.grad, 1.0 / y.data)
