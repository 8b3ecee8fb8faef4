"""Neural-network modules built on the autograd engine."""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.distill import functional as F
from repro.distill.tensor import Tensor


class Module:
    """Base class: parameter registration, train/eval mode, state export."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------------ #
    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        tensor.requires_grad = True
        tensor.name = name
        self._parameters[name] = tensor
        return tensor

    def register_module(self, name: str, module: "Module") -> "Module":
        self._modules[name] = module
        return module

    def parameters(self) -> Iterator[Tensor]:
        """All trainable parameters, depth-first."""
        yield from self._parameters.values()
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple]:
        for name, parameter in self._parameters.items():
            yield (f"{prefix}{name}", parameter)
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def train(self) -> "Module":
        self.training = True
        for module in self._modules.values():
            module.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for module in self._modules.values():
            module.eval()
        return self

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copies of every parameter, keyed by dotted name."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError


def _kaiming(shape: Sequence[int], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    scale = np.sqrt(2.0 / max(1, fan_in))
    return rng.normal(0.0, scale, size=shape)


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", Tensor(_kaiming((in_features, out_features), in_features, rng))
        )
        self.bias = None
        if bias:
            self.bias = self.register_parameter("bias", Tensor(np.zeros(out_features)))

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2-D convolution (square kernel, no bias)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int | None = None,
        rng=None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        if padding is None:
            padding = kernel // 2
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel * kernel
        self.weight = self.register_parameter(
            "weight",
            Tensor(_kaiming((out_channels, in_channels, kernel, kernel), fan_in, rng)),
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, stride=self.stride, padding=self.padding)


class DepthwiseConv2d(Module):
    """Depthwise 2-D convolution (square kernel, no bias)."""

    def __init__(
        self, channels: int, kernel: int, stride: int = 1, padding: int | None = None, rng=None
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        if padding is None:
            padding = kernel // 2
        self.stride = stride
        self.padding = padding
        self.weight = self.register_parameter(
            "weight", Tensor(_kaiming((channels, 1, kernel, kernel), kernel * kernel, rng))
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.depthwise_conv2d(x, self.weight, stride=self.stride, padding=self.padding)


class BatchNorm2d(Module):
    """Batch normalisation with running statistics."""

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.gamma = self.register_parameter("gamma", Tensor(np.ones(channels)))
        self.beta = self.register_parameter("beta", Tensor(np.zeros(channels)))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            out, mean, var = F.batch_norm2d(x, self.gamma, self.beta, eps=self.eps)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
            return out
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = Tensor((self.gamma.data * inv_std)[None, :, None, None])
        shift = Tensor(
            (self.beta.data - self.gamma.data * self.running_mean * inv_std)[None, :, None, None]
        )
        return x * scale + shift


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GlobalAvgPool(Module):
    """Global average pooling from NCHW to NC."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool(x)


class Flatten(Module):
    """Flatten all dimensions but the batch."""

    def forward(self, x: Tensor) -> Tensor:
        batch = x.shape[0]
        features = int(np.prod(x.shape[1:]))
        return x.reshape(batch, features)


class Sequential(Module):
    """A chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = f"m{index}"
            self.register_module(name, module)
            self._order.append(name)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x


def conv_bn_relu(in_channels: int, out_channels: int, kernel: int = 3, stride: int = 1, rng=None) -> Sequential:
    """The standard conv + BN + ReLU unit used by the example networks."""
    return Sequential(
        Conv2d(in_channels, out_channels, kernel, stride=stride, rng=rng),
        BatchNorm2d(out_channels),
        ReLU(),
    )


def dsconv_bn_relu(in_channels: int, out_channels: int, kernel: int = 3, stride: int = 1, rng=None) -> Sequential:
    """Depthwise-separable replacement unit (the compression student's cell)."""
    return Sequential(
        DepthwiseConv2d(in_channels, kernel, stride=stride, rng=rng),
        BatchNorm2d(in_channels),
        ReLU(),
        Conv2d(in_channels, out_channels, 1, stride=1, padding=0, rng=rng),
        BatchNorm2d(out_channels),
        ReLU(),
    )
