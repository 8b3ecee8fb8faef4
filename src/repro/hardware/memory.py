"""Per-device memory accounting (paper Fig. 7).

The paper measures the maximum memory allocation per rank under each
strategy.  The dominant terms are:

* **Student training state**: parameters + gradients + SGD momentum buffers
  for every student block resident on the device, plus *all* intermediate
  activations of those blocks at the device's batch size (they must be kept
  for the backward pass).
* **Teacher inference state**: parameters of the teacher blocks executed on
  the device, plus the peak transient activation of a forward-only pass (no
  gradients are needed because the teacher is frozen).
* **Input / relay buffers**: the block input activation received from the
  previous device (or loaded from the host) and the output activation staged
  for sending.

Under TR the early ranks hold the blocks with the largest feature maps, which
is why rank 0's footprint grows (Fig. 7); AHD splits those blocks across
devices along the batch dimension and brings the footprint back down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigurationError
from repro.models.blocks import BlockSpec

#: Number of parameter-sized buffers kept for a trainable block under
#: momentum SGD: weights + gradients + momentum.
TRAINABLE_STATE_COPIES = 3

#: Framework / CUDA-context baseline allocation per process, in bytes.
FRAMEWORK_BASELINE_BYTES = 0.6e9


@dataclass(frozen=True)
class MemoryModel:
    """Analytical peak-memory estimates for one device's assignment."""

    framework_baseline_bytes: float = FRAMEWORK_BASELINE_BYTES

    # ------------------------------------------------------------------ #
    def student_block_bytes(self, block: BlockSpec, batch: int) -> float:
        """Training-state bytes for one student block at a per-device batch."""
        self._check_batch(batch)
        parameter_state = TRAINABLE_STATE_COPIES * block.weight_bytes
        activations = block.activation_bytes_per_sample * batch
        return float(parameter_state + activations)

    # ------------------------------------------------------------------ #
    def device_peak_bytes(
        self,
        teacher_blocks: Iterable[BlockSpec],
        student_blocks: Iterable[BlockSpec],
        batch: int,
        resident_teacher_blocks: Iterable[BlockSpec] | None = None,
    ) -> float:
        """Peak allocation of one device.

        Parameters
        ----------
        teacher_blocks:
            Teacher blocks *executed* on this device each step (their
            transient activations contribute at the given batch).
        student_blocks:
            Student blocks *trained* on this device.
        batch:
            Per-device batch size.
        resident_teacher_blocks:
            Teacher blocks whose parameters are resident even if not executed
            every step (the DP baseline keeps the full teacher prefix loaded).
            Defaults to ``teacher_blocks``.
        """
        teacher_blocks = list(teacher_blocks)
        student_blocks = list(student_blocks)
        if resident_teacher_blocks is None:
            resident_blocks = teacher_blocks
        else:
            resident_blocks = list(resident_teacher_blocks)

        total = self.framework_baseline_bytes
        # Resident teacher parameters.
        total += sum(block.weight_bytes for block in resident_blocks)
        # Peak transient teacher activation among executed teacher blocks.
        if teacher_blocks:
            total += max(
                2.0 * block.peak_activation_bytes_per_sample * batch
                for block in teacher_blocks
            )
        # Student training state.
        for block in student_blocks:
            total += self.student_block_bytes(block, batch)
        # Relay buffers for the executed boundary activations.
        if teacher_blocks:
            first = teacher_blocks[0]
            last = teacher_blocks[-1]
            total += first.input_bytes_per_sample * batch
            total += last.output_bytes_per_sample * batch
        return float(total)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_batch(batch: int) -> None:
        if batch < 0:
            raise ConfigurationError(f"batch must be non-negative, got {batch}")
