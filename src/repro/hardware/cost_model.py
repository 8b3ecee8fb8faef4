"""Roofline-style execution-time model for blocks on a GPU.

Every "execution time" used by the schedulers and the discrete-event
simulator comes from this module.  The per-layer forward time is

    t_fwd(layer, batch) = max(compute_time, memory_time) + launch_overhead

where ``compute_time = batch * flops / rate(batch * macs, kind)`` and
``memory_time = batch * traffic_bytes / mem_bandwidth``.  The rate is the
GPU's peak throughput scaled by its utilization curve
(:meth:`~repro.hardware.gpu.GPUSpec.work_efficiency`) and capped per layer
kind (``GPUSpec.op_efficiency``).  Backward passes are
modelled as ``BACKWARD_FLOP_FACTOR`` times the forward compute (the usual
2x: grad-input plus grad-weight GEMMs), with the same bandwidth term.

The model intentionally reproduces the *relationships* the paper's evaluation
relies on — block-0 dominance at ImageNet resolution, poor efficiency at
small per-device batches, memory-bound depthwise convolutions — rather than
absolute wall-clock numbers of the authors' testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.models.blocks import BlockSpec
from repro.models.layers import LayerCosts, LayerSpec
from repro.hardware.gpu import GPUSpec

#: Backward-pass FLOPs relative to forward (grad-input + grad-weight).
BACKWARD_FLOP_FACTOR = 2.0


@dataclass(frozen=True)
class CostModel:
    """Execution-time estimates for one GPU type."""

    gpu: GPUSpec
    # Memo of block-level times keyed by (id(block), batch, pass): a tune
    # sweep re-derives the same (block, batch) cell thousands of times and
    # pays the per-layer roofline walk once.  Identity keys skip hashing the
    # whole layer tuple on every lookup; ``_block_refs`` pins each keyed
    # block so its id cannot be recycled.  GPUSpec holds a plain-dict
    # efficiency table and is unhashable, which rules out lru_cache on the
    # methods; the memo lives on the instance instead and ServerSpec reuses
    # the instance (see ServerSpec.cost_model).
    _block_times: Dict[Tuple[int, int, str], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _block_refs: Dict[int, BlockSpec] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # Layer-level estimates
    # ------------------------------------------------------------------ #
    def layer_forward_time(self, layer: LayerSpec, batch: int) -> float:
        """Forward time of one layer for a per-device batch."""
        return self._pass_time((layer.costs,), batch, backward=False)

    def layer_backward_time(self, layer: LayerSpec, batch: int) -> float:
        """Backward time of one layer for a per-device batch."""
        return self._pass_time((layer.costs,), batch, backward=True)

    # ------------------------------------------------------------------ #
    # Block-level estimates
    # ------------------------------------------------------------------ #
    def block_forward_time(self, block: BlockSpec, batch: int) -> float:
        """Forward time of a whole block (teacher or student)."""
        key = (id(block), batch, "fwd")
        cached = self._block_times.get(key)
        if cached is None:
            cached = self._pass_time(block.layer_costs, batch, backward=False)
            self._block_times[key] = cached
            self._block_refs[id(block)] = block
        return cached

    def block_backward_time(self, block: BlockSpec, batch: int) -> float:
        """Backward time of a whole block (student only; teachers are frozen)."""
        key = (id(block), batch, "bwd")
        cached = self._block_times.get(key)
        if cached is None:
            cached = self._pass_time(block.layer_costs, batch, backward=True)
            self._block_times[key] = cached
            self._block_refs[id(block)] = block
        return cached

    def weight_update_time(self, block: BlockSpec, batch: int = 0) -> float:
        """SGD weight-update time for a block (bandwidth bound over params).

        Momentum SGD reads the weight and momentum buffers and writes both:
        roughly four parameter-sized tensors of traffic.
        """
        del batch  # update cost is independent of the batch size
        traffic = 4.0 * block.weight_bytes
        return traffic / self.gpu.mem_bandwidth + self.gpu.kernel_launch_overhead_s

    # ------------------------------------------------------------------ #
    # The roofline formula
    # ------------------------------------------------------------------ #
    def _pass_time(self, costs: Sequence[LayerCosts], batch: int, backward: bool) -> float:
        """Summed roofline time of the layers' forward or backward passes.

        Per layer: ``max(compute_time, memory_time) + launch_overhead``.
        The compute rate is ``peak * efficiency * op_cap / max_efficiency``,
        floored at 1 FLOP/s, with the utilization curve of
        :meth:`GPUSpec.work_efficiency` inlined; the GPU's constants are
        read once per call.  The per-layer times add up with ``sum``.
        """
        self._check_batch(batch)
        if batch == 0:
            return 0.0
        gpu = self.gpu
        caps = gpu.op_efficiency
        peak = gpu.peak_flops
        max_eff = gpu.max_efficiency
        half_saturation = gpu.half_saturation_macs
        bandwidth = gpu.mem_bandwidth
        overhead = gpu.kernel_launch_overhead_s
        times = []
        for macs, sample_flops, activations, weights, kind in costs:
            if backward:
                # Grad-input plus grad-weight GEMMs.  Backward reads the
                # stored activation and the upstream gradient and writes
                # both gradients: roughly twice the forward activation
                # traffic, plus one read and one write of the weights.
                work = BACKWARD_FLOP_FACTOR * macs * batch
                flops = BACKWARD_FLOP_FACTOR * sample_flops * batch
                traffic = 2.0 * activations * batch + 2.0 * weights
            else:
                # Activations are read/written once per sample; weights are
                # read once per kernel launch regardless of the batch size.
                work = macs * batch
                flops = sample_flops * batch
                traffic = activations * batch + weights
            if work < 0:
                raise ConfigurationError(f"macs must be non-negative, got {work}")
            efficiency = max_eff * work / (work + half_saturation) if work else 0.0
            rate = peak * efficiency * caps.get(kind, 0.5) / max_eff
            compute_time = flops / (rate if rate > 1.0 else 1.0)
            memory_time = traffic / bandwidth
            times.append((memory_time if memory_time > compute_time else compute_time) + overhead)
        return sum(times)

    @staticmethod
    def _check_batch(batch: int) -> None:
        if batch < 0:
            raise ConfigurationError(f"batch must be non-negative, got {batch}")
