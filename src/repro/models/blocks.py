"""Block specifications: contiguous groups of layers used for distillation.

Blockwise distillation (paper §II-A) splits a network into a small number of
blocks; each teacher block / student block pair is trained independently.
:class:`BlockSpec` aggregates the per-layer costs that the hardware cost model
and the schedulers need: MACs, parameters, activation footprints and the size
of the block's output activation (what gets relayed between devices under
teacher relaying).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple

from repro.errors import ShapeError
from repro.fold import left_sum
from repro.models.layers import BYTES_PER_ELEMENT, LayerCosts, LayerSpec, check_chain


@dataclass(frozen=True)
class BlockSpec:
    """A contiguous group of layers treated as one distillation block.

    The per-sample aggregates over ``layers`` (MACs, parameters, weight and
    activation bytes) are computed once per block and cached on the
    instance: the cost and memory models read them for every plan they
    price.  The cache lives in the instance ``__dict__``, so the class is a
    frozen dataclass without slots.
    """

    name: str
    index: int
    layers: Tuple[LayerSpec, ...]
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ShapeError(f"block {self.name!r} has no layers")
        check_chain(self.layers)

    # ------------------------------------------------------------------ #
    # Shapes
    # ------------------------------------------------------------------ #
    @property
    def in_shape(self) -> Tuple[int, ...]:
        return self.layers[0].in_shape

    @property
    def out_shape(self) -> Tuple[int, ...]:
        return self.layers[-1].out_shape

    # ------------------------------------------------------------------ #
    # Compute / parameter costs
    # ------------------------------------------------------------------ #
    @cached_property
    def macs(self) -> float:
        """Forward MACs per sample."""
        return float(left_sum(layer.macs for layer in self.layers))

    @property
    def flops(self) -> float:
        """Forward FLOPs per sample."""
        return 2.0 * self.macs

    @cached_property
    def params(self) -> int:
        return int(left_sum(layer.params for layer in self.layers))

    @cached_property
    def weight_bytes(self) -> int:
        return self.params * BYTES_PER_ELEMENT

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    # ------------------------------------------------------------------ #
    # Activation footprints
    # ------------------------------------------------------------------ #
    @cached_property
    def input_bytes_per_sample(self) -> int:
        """Bytes of the block's input activation for one sample."""
        return self.layers[0].in_bytes

    @cached_property
    def output_bytes_per_sample(self) -> int:
        """Bytes of the block's output activation for one sample.

        This is the tensor relayed to the next device under teacher relaying.
        """
        return self.layers[-1].out_bytes

    @cached_property
    def activation_bytes_per_sample(self) -> int:
        """Total bytes of all intermediate activations for one sample.

        During a student backward pass every intermediate activation must be
        kept resident; this is the dominant memory term for early blocks with
        large spatial dimensions (paper §VII-C).
        """
        total = self.layers[0].in_bytes
        total += left_sum(layer.out_bytes for layer in self.layers)
        return int(total)

    @cached_property
    def peak_activation_bytes_per_sample(self) -> int:
        """Largest single intermediate activation (forward-only residency)."""
        peak = self.layers[0].in_bytes
        for layer in self.layers:
            peak = max(peak, layer.out_bytes)
        return int(peak)

    @cached_property
    def layer_costs(self) -> Tuple[LayerCosts, ...]:
        """Every layer's :attr:`~repro.models.layers.LayerSpec.costs`, in order.

        The cost model prices a block at several batch sizes on several
        GPUs from this one tuple instead of walking the layer properties.
        """
        return tuple(layer.costs for layer in self.layers)

    # ------------------------------------------------------------------ #
    # Utility
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line summary used in reports and schedule visualisations."""
        return (
            f"block[{self.index}] {self.name:<12s} layers={self.num_layers:<3d} "
            f"in={self.in_shape} out={self.out_shape} "
            f"params={self.params:,} macs={self.macs:,.0f}"
        )

    def with_index(self, index: int) -> "BlockSpec":
        """Return a copy of this block with a different index."""
        return BlockSpec(
            name=self.name,
            index=index,
            layers=self.layers,
            metadata=dict(self.metadata),
        )
