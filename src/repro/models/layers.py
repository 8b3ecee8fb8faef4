"""Layer specifications with analytical FLOP, parameter and activation costs.

A :class:`LayerSpec` is an immutable record describing one layer of a neural
network: its input/output shapes (per sample, channel-first ``(C, H, W)`` or
``(F,)`` for fully-connected layers), its parameter count, and its
multiply-accumulate (MAC) count for a single-sample forward pass.

Factory functions (:func:`conv2d`, :func:`depthwise_conv2d`, :func:`linear`,
...) compute these quantities from the usual layer hyper-parameters so the
architecture builders read like ordinary model definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import ShapeError
from repro.fold import left_sum

#: Bytes used per activation / weight element (FP32 training, as in the paper).
BYTES_PER_ELEMENT = 4

Shape = Tuple[int, ...]

#: See :attr:`LayerSpec.costs`.
LayerCosts = Tuple[float, float, int, int, str]


def _shape_elems(shape: Shape) -> int:
    """Number of elements in a per-sample shape."""
    total = 1
    for dim in shape:
        if dim <= 0:
            raise ShapeError(f"shape {shape} has a non-positive dimension")
        total *= dim
    return total


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution with size={size} kernel={kernel} stride={stride} "
            f"padding={padding} produces non-positive output size {out}"
        )
    return out


@dataclass(frozen=True)
class LayerSpec:
    """Immutable description of a single layer.

    Attributes
    ----------
    name:
        Human-readable unique-ish name (e.g. ``"stage2.conv3x3"``).
    kind:
        Layer category, one of ``{"conv", "dwconv", "linear", "bn", "relu",
        "pool", "add", "reshape", "mixed"}``.  The cost model uses the kind to
        pick arithmetic-intensity heuristics.
    in_shape / out_shape:
        Per-sample shapes.
    params:
        Trainable parameter count.
    macs:
        Multiply-accumulate count for a single-sample forward pass.
    """

    name: str
    kind: str
    in_shape: Shape
    out_shape: Shape
    params: int
    macs: float
    metadata: dict = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def flops(self) -> float:
        """Forward FLOPs per sample (2 FLOPs per MAC)."""
        return 2.0 * self.macs

    @property
    def in_elems(self) -> int:
        return _shape_elems(self.in_shape)

    @property
    def out_elems(self) -> int:
        return _shape_elems(self.out_shape)

    @property
    def in_bytes(self) -> int:
        """Input activation bytes per sample."""
        return self.in_elems * BYTES_PER_ELEMENT

    @property
    def out_bytes(self) -> int:
        """Output activation bytes per sample."""
        return self.out_elems * BYTES_PER_ELEMENT

    @property
    def weight_bytes(self) -> int:
        """Parameter bytes."""
        return self.params * BYTES_PER_ELEMENT

    @property
    def costs(self) -> LayerCosts:
        """``(macs, flops, in_bytes + out_bytes, weight_bytes, kind)``.

        The per-sample inputs of the hardware cost model, in one tuple.
        """
        return (self.macs, self.flops, self.in_bytes + self.out_bytes, self.weight_bytes, self.kind)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name:<28s} {self.kind:<8s} "
            f"in={self.in_shape} out={self.out_shape} "
            f"params={self.params:,} macs={self.macs:,.0f}"
        )


# ---------------------------------------------------------------------- #
# Factory functions
# ---------------------------------------------------------------------- #
def conv2d(
    name: str,
    in_shape: Shape,
    out_channels: int,
    kernel: int,
    stride: int = 1,
    padding: int | None = None,
    groups: int = 1,
    bias: bool = False,
) -> LayerSpec:
    """Standard (possibly grouped) 2-D convolution."""
    if len(in_shape) != 3:
        raise ShapeError(f"conv2d expects a (C, H, W) input shape, got {in_shape}")
    in_channels, height, width = in_shape
    if in_channels % groups != 0 or out_channels % groups != 0:
        raise ShapeError(
            f"channels ({in_channels}->{out_channels}) not divisible by groups={groups}"
        )
    if padding is None:
        padding = kernel // 2
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    params = out_channels * (in_channels // groups) * kernel * kernel
    if bias:
        params += out_channels
    macs = params_macs = (
        out_channels * (in_channels // groups) * kernel * kernel * out_h * out_w
    )
    del params_macs
    return LayerSpec(
        name=name,
        kind="conv",
        in_shape=in_shape,
        out_shape=(out_channels, out_h, out_w),
        params=params,
        macs=float(macs),
        metadata={"kernel": kernel, "stride": stride, "groups": groups},
    )


def depthwise_conv2d(
    name: str,
    in_shape: Shape,
    kernel: int,
    stride: int = 1,
    padding: int | None = None,
) -> LayerSpec:
    """Depthwise convolution (groups == channels)."""
    in_channels = in_shape[0]
    spec = conv2d(
        name,
        in_shape,
        out_channels=in_channels,
        kernel=kernel,
        stride=stride,
        padding=padding,
        groups=in_channels,
    )
    return LayerSpec(
        name=spec.name,
        kind="dwconv",
        in_shape=spec.in_shape,
        out_shape=spec.out_shape,
        params=spec.params,
        macs=spec.macs,
        metadata=spec.metadata,
    )


def pointwise_conv2d(name: str, in_shape: Shape, out_channels: int) -> LayerSpec:
    """1x1 convolution."""
    return conv2d(name, in_shape, out_channels, kernel=1, stride=1, padding=0)


def linear(name: str, in_features: int, out_features: int, bias: bool = True) -> LayerSpec:
    """Fully-connected layer."""
    params = in_features * out_features + (out_features if bias else 0)
    return LayerSpec(
        name=name,
        kind="linear",
        in_shape=(in_features,),
        out_shape=(out_features,),
        params=params,
        macs=float(in_features * out_features),
    )


def batch_norm(name: str, shape: Shape) -> LayerSpec:
    """Batch normalisation over the channel dimension."""
    channels = shape[0]
    elems = _shape_elems(shape)
    return LayerSpec(
        name=name,
        kind="bn",
        in_shape=shape,
        out_shape=shape,
        params=2 * channels,
        macs=float(2 * elems),
    )


def relu(name: str, shape: Shape) -> LayerSpec:
    """ReLU / ReLU6 activation (element-wise, no parameters)."""
    return LayerSpec(
        name=name,
        kind="relu",
        in_shape=shape,
        out_shape=shape,
        params=0,
        macs=float(_shape_elems(shape)),
    )


def max_pool(name: str, in_shape: Shape, kernel: int, stride: int | None = None) -> LayerSpec:
    """Max pooling."""
    if len(in_shape) != 3:
        raise ShapeError(f"pool expects a (C, H, W) input shape, got {in_shape}")
    channels, height, width = in_shape
    if stride is None:
        stride = kernel
    out_h = conv_output_size(height, kernel, stride, 0)
    out_w = conv_output_size(width, kernel, stride, 0)
    macs = channels * out_h * out_w * kernel * kernel
    return LayerSpec(
        name=name,
        kind="pool",
        in_shape=in_shape,
        out_shape=(channels, out_h, out_w),
        params=0,
        macs=float(macs),
        metadata={"pool": "max", "kernel": kernel, "stride": stride},
    )


def global_avg_pool(name: str, in_shape: Shape) -> LayerSpec:
    """Global average pooling collapsing the spatial dimensions."""
    if len(in_shape) != 3:
        raise ShapeError(f"global_avg_pool expects (C, H, W), got {in_shape}")
    channels, height, width = in_shape
    return LayerSpec(
        name=name,
        kind="pool",
        in_shape=in_shape,
        out_shape=(channels,),
        params=0,
        macs=float(channels * height * width),
        metadata={"pool": "global_avg"},
    )


def add_residual(name: str, shape: Shape) -> LayerSpec:
    """Element-wise residual addition."""
    return LayerSpec(
        name=name,
        kind="add",
        in_shape=shape,
        out_shape=shape,
        params=0,
        macs=float(_shape_elems(shape)),
    )


def flatten(name: str, in_shape: Shape) -> LayerSpec:
    """Reshape a (C, H, W) activation to a flat feature vector."""
    return LayerSpec(
        name=name,
        kind="reshape",
        in_shape=in_shape,
        out_shape=(_shape_elems(in_shape),),
        params=0,
        macs=0.0,
    )


def scaled_channels(channels: int, width_mult: float, divisor: int = 8) -> int:
    """Round ``channels * width_mult`` to the nearest multiple of ``divisor``.

    Mirrors the ``_make_divisible`` helper used by MobileNet-family models.
    """
    scaled = channels * width_mult
    rounded = max(divisor, int(scaled + divisor / 2) // divisor * divisor)
    # Do not shrink by more than 10 %.
    if rounded < 0.9 * scaled:
        rounded += divisor
    return int(rounded)


def human_flops(flops: float) -> str:
    """Format a FLOP count as the paper does (e.g. ``87.98 M``)."""
    for unit, scale in (("T", 1e12), ("B", 1e9), ("M", 1e6), ("K", 1e3)):
        if flops >= scale:
            return f"{flops / scale:.2f} {unit}"
    return f"{flops:.0f}"


def human_params(params: float) -> str:
    """Format a parameter count as the paper does (e.g. ``2.24 M``)."""
    if params >= 1e6:
        return f"{params / 1e6:.2f} M"
    if params >= 1e3:
        return f"{params / 1e3:.2f} K"
    return f"{params:.0f}"


def total_macs(layers) -> float:
    """Sum of MACs over an iterable of :class:`LayerSpec`."""
    return float(left_sum(layer.macs for layer in layers))


def total_params(layers) -> int:
    """Sum of parameters over an iterable of :class:`LayerSpec`."""
    return int(left_sum(layer.params for layer in layers))


def check_chain(layers) -> None:
    """Validate that consecutive layers have compatible shapes.

    Layers of kind ``add`` take the same shape in and out and may follow any
    layer with that output shape; all other layers must consume exactly the
    previous layer's output shape.
    """
    previous: LayerSpec | None = None
    for layer in layers:
        if previous is not None and layer.in_shape != previous.out_shape:
            raise ShapeError(
                f"layer {layer.name!r} expects input shape {layer.in_shape} but "
                f"previous layer {previous.name!r} produces {previous.out_shape}"
            )
        previous = layer
