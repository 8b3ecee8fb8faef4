"""A small reverse-mode automatic differentiation engine over numpy arrays.

Only the operations needed by the distillation networks are implemented:
element-wise arithmetic, matrix multiplication, ReLU, reshaping, reductions,
padding and the im2col-style patch extraction used by the convolution layers.
The design follows the classic tape-less recursive approach: every ``Tensor``
remembers its parents and a backward closure; ``backward()`` topologically
sorts the graph and accumulates gradients.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ShapeError

Array = np.ndarray


class Tensor:
    """An array with an optional gradient and autodiff history."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward: Optional[Callable[[Array], None]] = None,
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[Array] = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> Array:
        return self.data

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut off from the autodiff graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Autodiff
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: Array) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[Array] = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                visit(parent)
            topo.append(node)

        visit(self)
        grads = {id(self): np.asarray(grad, dtype=np.float64)}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node_grad.shape != node.data.shape:
                node_grad = _unbroadcast(node_grad, node.data.shape)
            if node.requires_grad:
                node._accumulate(node_grad)
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            for parent, parent_grad in zip(node._parents, parent_grads):
                if parent_grad is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + parent_grad
                else:
                    grads[id(parent)] = parent_grad

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: Array):
            return grad, grad

        return _make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: Array):
            return (-grad,)

        return _make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: Array):
            return grad, -grad

        return _make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: Array):
            return grad * other.data, grad * self.data

        return _make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: Array):
            return grad / other.data, -grad * self.data / (other.data ** 2)

        return _make(self.data / other.data, (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        def backward(grad: Array):
            return (grad * exponent * self.data ** (exponent - 1),)

        return _make(self.data ** exponent, (self,), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other)

        def backward(grad: Array):
            return grad @ other.data.T, self.data.T @ grad

        return _make(self.data @ other.data, (self, other), backward)

    __matmul__ = matmul

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: Array):
            return (grad * mask,)

        return _make(self.data * mask, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: Array):
            return (grad * out_data,)

        return _make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: Array):
            return (grad / self.data,)

        return _make(np.log(self.data), (self,), backward)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad: Array):
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            return (np.broadcast_to(expanded, self.data.shape).copy(),)

        return _make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        original = self.data.shape

        def backward(grad: Array):
            return (grad.reshape(original),)

        return _make(self.data.reshape(*shape), (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        exps = shifted.exp()
        return exps / exps.sum(axis=axis, keepdims=True)


def as_tensor(value) -> Tensor:
    """Coerce scalars / arrays to constant tensors."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=False)


def _make(data: Array, parents: Tuple[Tensor, ...], backward) -> Tensor:
    requires = any(parent.requires_grad or parent._parents for parent in parents)
    return Tensor(data, requires_grad=False, parents=parents if requires else parents, backward=backward)


def _unbroadcast(grad: Array, shape: Tuple[int, ...]) -> Array:
    """Reduce a broadcasted gradient back to the original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensor_list = list(tensors)
    datas = [tensor.data for tensor in tensor_list]

    def backward(grad: Array):
        pieces = np.split(grad, len(tensor_list), axis=axis)
        return tuple(piece.squeeze(axis=axis) for piece in pieces)

    return _make(np.stack(datas, axis=axis), tuple(tensor_list), backward)
