"""Functional building blocks with custom forward/backward implementations.

The convolution and pooling primitives are implemented directly in numpy with
hand-written backward closures (rather than composing autodiff primitives)
because that keeps the hot loops vectorised over the batch and channel
dimensions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.distill.tensor import Tensor, _make
from repro.errors import ShapeError


def _pad_input(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _unpad_grad(grad: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return grad
    return grad[:, :, padding:-padding, padding:-padding]


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Standard 2-D convolution, NCHW layout, no bias.

    ``weight`` has shape ``(out_channels, in_channels, k, k)``.
    """
    x_data = x.data
    w_data = weight.data
    if x_data.ndim != 4 or w_data.ndim != 4:
        raise ShapeError("conv2d expects 4-D input and weight tensors")
    batch, in_channels, height, width = x_data.shape
    out_channels, w_in_channels, kernel, kernel2 = w_data.shape
    if kernel != kernel2:
        raise ShapeError("conv2d only supports square kernels")
    if w_in_channels != in_channels:
        raise ShapeError(
            f"weight expects {w_in_channels} input channels, input has {in_channels}"
        )
    padded = _pad_input(x_data, padding)
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    out = np.zeros((batch, out_channels, out_h, out_w), dtype=np.float64)
    for ki in range(kernel):
        for kj in range(kernel):
            patch = padded[:, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride]
            out += np.einsum("nihw,oi->nohw", patch, w_data[:, :, ki, kj])

    def backward(grad: np.ndarray):
        grad_padded = np.zeros_like(padded)
        grad_weight = np.zeros_like(w_data)
        for ki in range(kernel):
            for kj in range(kernel):
                patch = padded[
                    :, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride
                ]
                grad_weight[:, :, ki, kj] = np.einsum("nohw,nihw->oi", grad, patch)
                grad_padded[
                    :, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride
                ] += np.einsum("nohw,oi->nihw", grad, w_data[:, :, ki, kj])
        return _unpad_grad(grad_padded, padding), grad_weight

    return _make(out, (x, weight), backward)


def depthwise_conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Depthwise 2-D convolution; ``weight`` has shape ``(channels, 1, k, k)``."""
    x_data = x.data
    w_data = weight.data
    if x_data.ndim != 4 or w_data.ndim != 4 or w_data.shape[1] != 1:
        raise ShapeError("depthwise_conv2d expects NCHW input and (C, 1, k, k) weight")
    batch, channels, height, width = x_data.shape
    w_channels, _, kernel, _ = w_data.shape
    if w_channels != channels:
        raise ShapeError(f"weight has {w_channels} channels, input has {channels}")
    padded = _pad_input(x_data, padding)
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    out = np.zeros((batch, channels, out_h, out_w), dtype=np.float64)
    for ki in range(kernel):
        for kj in range(kernel):
            patch = padded[:, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride]
            out += patch * w_data[None, :, 0, ki, kj][..., None, None]

    def backward(grad: np.ndarray):
        grad_padded = np.zeros_like(padded)
        grad_weight = np.zeros_like(w_data)
        for ki in range(kernel):
            for kj in range(kernel):
                patch = padded[
                    :, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride
                ]
                grad_weight[:, 0, ki, kj] = np.einsum("nchw,nchw->c", grad, patch)
                grad_padded[
                    :, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride
                ] += grad * w_data[None, :, 0, ki, kj][..., None, None]
        return _unpad_grad(grad_padded, padding), grad_weight

    return _make(out, (x, weight), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Global average pooling from NCHW to NC."""
    if x.ndim != 4:
        raise ShapeError("global_avg_pool expects a 4-D NCHW tensor")
    batch, channels, height, width = x.shape
    scale = 1.0 / (height * width)
    out = x.data.mean(axis=(2, 3))

    def backward(grad: np.ndarray):
        expanded = np.broadcast_to(
            grad[:, :, None, None] * scale, (batch, channels, height, width)
        ).copy()
        return (expanded,)

    return _make(out, (x,), backward)


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    eps: float = 1e-5,
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Batch normalisation over (N, H, W) per channel.

    Returns the normalised tensor plus the batch mean and variance so the
    layer can maintain running statistics.
    """
    if x.ndim != 4:
        raise ShapeError("batch_norm2d expects a 4-D NCHW tensor")
    mean = x.data.mean(axis=(0, 2, 3))
    var = x.data.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma.data[None, :, None, None] * x_hat + beta.data[None, :, None, None]
    count = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]

    def backward(grad: np.ndarray):
        grad_gamma = np.einsum("nchw,nchw->c", grad, x_hat)
        grad_beta = grad.sum(axis=(0, 2, 3))
        grad_xhat = grad * gamma.data[None, :, None, None]
        sum_grad_xhat = grad_xhat.sum(axis=(0, 2, 3))
        sum_grad_xhat_xhat = np.einsum("nchw,nchw->c", grad_xhat, x_hat)
        grad_x = (
            inv_std[None, :, None, None]
            / count
            * (
                count * grad_xhat
                - sum_grad_xhat[None, :, None, None]
                - x_hat * sum_grad_xhat_xhat[None, :, None, None]
            )
        )
        return grad_x, grad_gamma, grad_beta

    return _make(out, (x, gamma, beta), backward), mean, var
