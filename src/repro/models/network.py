"""Network specifications: an ordered chain of distillation blocks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple

from repro.errors import ShapeError
from repro.models.blocks import BlockSpec
from repro.models.layers import human_flops, human_params


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered chain of blocks forming a complete network.

    The chain is validated so that each block consumes exactly the previous
    block's output shape — the property teacher relaying relies on when it
    forwards intermediate activations between devices.
    """

    name: str
    blocks: Tuple[BlockSpec, ...]
    input_shape: Tuple[int, ...]
    num_classes: int
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ShapeError(f"network {self.name!r} has no blocks")
        if self.blocks[0].in_shape != self.input_shape:
            raise ShapeError(
                f"network {self.name!r}: first block expects {self.blocks[0].in_shape} "
                f"but the network input shape is {self.input_shape}"
            )
        for previous, current in zip(self.blocks, self.blocks[1:]):
            if current.in_shape != previous.out_shape:
                raise ShapeError(
                    f"network {self.name!r}: block {current.index} expects "
                    f"{current.in_shape} but block {previous.index} produces "
                    f"{previous.out_shape}"
                )
        for expected_index, block in enumerate(self.blocks):
            if block.index != expected_index:
                raise ShapeError(
                    f"network {self.name!r}: block at position {expected_index} has "
                    f"index {block.index}"
                )

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[BlockSpec]:
        return iter(self.blocks)

    def block(self, index: int) -> BlockSpec:
        """Return block ``index`` (negative indices are not allowed)."""
        if index < 0 or index >= len(self.blocks):
            raise IndexError(f"block index {index} out of range [0, {len(self.blocks)})")
        return self.blocks[index]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    # ------------------------------------------------------------------ #
    # Aggregate costs
    # ------------------------------------------------------------------ #
    @property
    def params(self) -> int:
        return int(sum(block.params for block in self.blocks))

    @property
    def macs(self) -> float:
        return float(sum(block.macs for block in self.blocks))

    @property
    def flops(self) -> float:
        return 2.0 * self.macs

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """Multi-line summary table of the network's blocks."""
        lines = [
            f"{self.name}: {len(self.blocks)} blocks, "
            f"{human_params(self.params)} params, {human_flops(self.flops)} FLOPs, "
            f"input={self.input_shape}, classes={self.num_classes}"
        ]
        lines.extend(block.describe() for block in self.blocks)
        return "\n".join(lines)
