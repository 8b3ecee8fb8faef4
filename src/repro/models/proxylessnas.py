"""ProxylessNAS student supernet (paper Table I, NAS workload).

The NAS student is a ProxylessNAS-style supernet: every searchable layer is a
mixed operation whose candidates are MBConv units with kernel size in
``{3, 5, 7}`` and expansion ratio in ``{3, 6}`` (Table I of the paper).  During
block-wisely supervised search (DNA-style) the supernet is trained blockwise
against the MobileNetV2 teacher, so the student's block boundaries — input and
output channel counts and spatial sizes — mirror the teacher's.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.fold import left_sum
from repro.models import layers as L
from repro.models.blocks import BlockSpec
from repro.models.mobilenetv2 import (
    BLOCK_STAGE_GROUPS,
    INVERTED_RESIDUAL_SETTINGS,
    _dataset_input,
    _inverted_residual,
)
from repro.models.network import NetworkSpec

#: Candidate kernel sizes of each mixed operation (paper Table I).
DEFAULT_KERNEL_SIZES: Tuple[int, ...] = (3, 5, 7)
#: Candidate expansion ratios of each mixed operation (paper Table I).
DEFAULT_EXPAND_RATIOS: Tuple[int, ...] = (3, 6)


def _candidate_macs_params(
    in_shape: Tuple[int, int, int],
    out_channels: int,
    stride: int,
    kernel_sizes: Tuple[int, ...],
    expand_ratios: Tuple[int, ...],
) -> Tuple[float, int, Tuple[int, int, int]]:
    """Aggregate MACs/params over all candidate MBConv ops of one layer."""
    total_macs = 0.0
    total_params = 0
    out_shape: Tuple[int, int, int] | None = None
    for kernel in kernel_sizes:
        for expansion in expand_ratios:
            unit = _inverted_residual(
                "candidate", in_shape, out_channels, expansion, stride, kernel=kernel
            )
            total_macs += left_sum(layer.macs for layer in unit)
            total_params += left_sum(layer.params for layer in unit)
            out_shape = unit[-1].out_shape
    assert out_shape is not None
    return total_macs, total_params, out_shape


def _mixed_mbconv(
    name: str,
    in_shape: Tuple[int, int, int],
    out_channels: int,
    stride: int,
    kernel_sizes: Tuple[int, ...],
    expand_ratios: Tuple[int, ...],
) -> L.LayerSpec:
    """One searchable layer of the supernet as a single mixed-op LayerSpec."""
    macs, params, out_shape = _candidate_macs_params(
        in_shape, out_channels, stride, kernel_sizes, expand_ratios
    )
    num_candidates = len(kernel_sizes) * len(expand_ratios)
    return L.LayerSpec(
        name=name,
        kind="mixed",
        in_shape=in_shape,
        out_shape=out_shape,
        params=params + num_candidates,
        macs=macs,
        metadata={
            "num_candidates": num_candidates,
            "kernel_sizes": kernel_sizes,
            "expand_ratios": expand_ratios,
        },
    )


def build_proxylessnas_supernet(
    dataset: str = "cifar10",
    kernel_sizes: Tuple[int, ...] = DEFAULT_KERNEL_SIZES,
    expand_ratios: Tuple[int, ...] = DEFAULT_EXPAND_RATIOS,
    num_blocks: int = 6,
    width_mult: float = 1.0,
) -> NetworkSpec:
    """Build the ProxylessNAS student supernet grouped into six blocks.

    The supernet mirrors the teacher's stage layout (stem, seven
    inverted-residual stages, head) so that each student block consumes and
    produces activations with the same shape as the corresponding teacher
    block — the requirement of blockwise distillation.
    """
    if num_blocks != len(BLOCK_STAGE_GROUPS):
        raise ConfigurationError(
            f"ProxylessNAS supernet supports {len(BLOCK_STAGE_GROUPS)} blocks, "
            f"requested {num_blocks}"
        )
    if not kernel_sizes or not expand_ratios:
        raise ConfigurationError("kernel_sizes and expand_ratios must be non-empty")

    input_shape, num_classes, stem_stride = _dataset_input(dataset)

    # Stage construction mirrors the teacher, but every inverted-residual unit
    # beyond the first (fixed, expansion-1) stage becomes a mixed op.
    stages: List[List[L.LayerSpec]] = []
    stem_channels = L.scaled_channels(32, width_mult)
    stem_conv = L.conv2d("s.stem.conv", input_shape, stem_channels, kernel=3, stride=stem_stride)
    stages.append(
        [
            stem_conv,
            L.batch_norm("s.stem.bn", stem_conv.out_shape),
            L.relu("s.stem.relu", stem_conv.out_shape),
        ]
    )
    shape = stem_conv.out_shape

    for stage_index, (expansion, channels, repeats, stride) in enumerate(
        INVERTED_RESIDUAL_SETTINGS
    ):
        out_channels = L.scaled_channels(channels, width_mult)
        effective_stride = stride
        if dataset.lower() == "cifar10" and stage_index == 1:
            effective_stride = 1
        stage_layers: List[L.LayerSpec] = []
        for repeat in range(repeats):
            unit_stride = effective_stride if repeat == 0 else 1
            name = f"s.stage{stage_index}.unit{repeat}"
            if stage_index == 0:
                # The first, expansion-1 stage is not searched (as in
                # ProxylessNAS): keep it as a fixed inverted residual.
                unit = _inverted_residual(name, shape, out_channels, expansion, unit_stride)
                stage_layers.extend(unit)
                shape = unit[-1].out_shape
            else:
                mixed = _mixed_mbconv(
                    name, shape, out_channels, unit_stride, kernel_sizes, expand_ratios
                )
                stage_layers.append(mixed)
                shape = mixed.out_shape
        stages.append(stage_layers)

    head_channels = L.scaled_channels(1280, max(1.0, width_mult))
    head_conv = L.pointwise_conv2d("s.head.conv", shape, head_channels)
    gap = L.global_avg_pool("s.head.gap", head_conv.out_shape)
    classifier = L.linear("s.head.classifier", head_channels, num_classes)
    stages.append(
        [
            head_conv,
            L.batch_norm("s.head.bn", head_conv.out_shape),
            L.relu("s.head.relu", head_conv.out_shape),
            gap,
            classifier,
        ]
    )

    blocks: List[BlockSpec] = []
    for block_index, group in enumerate(BLOCK_STAGE_GROUPS):
        block_layers: List[L.LayerSpec] = []
        for stage_marker in group:
            if stage_marker == -1:
                block_layers.extend(stages[0])
            elif stage_marker == 7:
                block_layers.extend(stages[8])
            else:
                block_layers.extend(stages[stage_marker + 1])
        blocks.append(
            BlockSpec(
                name=f"pnas.block{block_index}",
                index=block_index,
                layers=tuple(block_layers),
                metadata={"searchable": block_index not in (0,)},
            )
        )
    return NetworkSpec(
        name=f"ProxylessNAS-supernet-{dataset.lower()}",
        blocks=tuple(blocks),
        input_shape=input_shape,
        num_classes=num_classes,
        metadata={
            "dataset": dataset.lower(),
            "kernel_sizes": tuple(kernel_sizes),
            "expand_ratios": tuple(expand_ratios),
            "width_mult": width_mult,
        },
    )


def searched_model_macs(supernet: NetworkSpec) -> float:
    """Approximate MACs of a single searched architecture.

    A searched model keeps exactly one candidate per mixed op; dividing each
    mixed op's MACs by its candidate count gives the average single-path cost,
    which is the quantity the paper reports for the final student (Table II).
    """
    total = 0.0
    for block in supernet.blocks:
        for layer in block.layers:
            if layer.kind == "mixed":
                total += layer.macs / layer.metadata.get("num_candidates", 1)
            else:
                total += layer.macs
    return total
