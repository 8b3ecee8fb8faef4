"""The cached-cost roofline against the per-layer property walk it replaced.

``CostModel`` prices a block from the per-layer costs the block caches
(``BlockSpec.layer_costs``), in one loop with the GPU constants bound up
front.  The oracle below is the straightforward version: every layer
re-derives its FLOPs and traffic from the ``LayerSpec`` properties and gets
its rate from the removed ``GPUSpec.effective_flops`` (copied here), and a
block time is the left fold (``left_sum``, as in ``src``) of its layers'
times.  The two must agree with ``==`` for every registered pair's blocks on
both GPUs.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import VALID_DATASETS, VALID_TASKS
from repro.errors import ConfigurationError
from repro.fold import left_sum
from repro.hardware.cost_model import BACKWARD_FLOP_FACTOR, CostModel
from repro.hardware.gpu import RTX_2080TI, RTX_A6000
from repro.models import layers as L
from repro.models.blocks import BlockSpec
from repro.models.pairs import build_pair


# ---------------------------------------------------------------------- #
# Oracle
# ---------------------------------------------------------------------- #
def effective_flops(gpu, macs, kind):
    cap = gpu.op_efficiency.get(kind, 0.5)
    return max(1.0, gpu.peak_flops * gpu.work_efficiency(macs) * cap / gpu.max_efficiency)


def oracle_layer_forward_time(gpu, layer, batch):
    if batch < 0:
        raise ConfigurationError(f"batch must be non-negative, got {batch}")
    if batch == 0:
        return 0.0
    work_macs = layer.macs * batch
    flops = layer.flops * batch
    traffic = (layer.in_bytes + layer.out_bytes) * batch + layer.weight_bytes
    compute_time = flops / effective_flops(gpu, work_macs, layer.kind)
    memory_time = traffic / gpu.mem_bandwidth
    return max(compute_time, memory_time) + gpu.kernel_launch_overhead_s


def oracle_layer_backward_time(gpu, layer, batch):
    if batch < 0:
        raise ConfigurationError(f"batch must be non-negative, got {batch}")
    if batch == 0:
        return 0.0
    work_macs = BACKWARD_FLOP_FACTOR * layer.macs * batch
    flops = BACKWARD_FLOP_FACTOR * layer.flops * batch
    traffic = 2.0 * (layer.in_bytes + layer.out_bytes) * batch + 2.0 * layer.weight_bytes
    compute_time = flops / effective_flops(gpu, work_macs, layer.kind)
    memory_time = traffic / gpu.mem_bandwidth
    return max(compute_time, memory_time) + gpu.kernel_launch_overhead_s


# ---------------------------------------------------------------------- #
# Cells
# ---------------------------------------------------------------------- #
GPUS = (RTX_A6000, RTX_2080TI)


@lru_cache(maxsize=None)
def pair_blocks(task, dataset):
    pair = build_pair(task, dataset)
    return pair.teacher.blocks + pair.student.blocks


cells = st.tuples(
    st.sampled_from(VALID_TASKS),
    st.sampled_from(VALID_DATASETS),
    st.sampled_from(GPUS),
    st.integers(0, 512),
)


class TestRooflineOracle:
    @settings(max_examples=120, deadline=None)
    @given(cell=cells)
    def test_block_times_match_the_layer_walk(self, cell):
        task, dataset, gpu, batch = cell
        cost = CostModel(gpu=gpu)
        for block in pair_blocks(task, dataset):
            forward = left_sum(
                oracle_layer_forward_time(gpu, layer, batch) for layer in block.layers
            )
            backward = left_sum(
                oracle_layer_backward_time(gpu, layer, batch) for layer in block.layers
            )
            assert cost.block_forward_time(block, batch) == forward
            assert cost.block_backward_time(block, batch) == backward
            # The memoised second answer is the same float.
            assert cost.block_forward_time(block, batch) == forward

    @settings(max_examples=60, deadline=None)
    @given(cell=cells)
    def test_layer_times_match_the_oracle(self, cell):
        task, dataset, gpu, batch = cell
        cost = CostModel(gpu=gpu)
        for block in pair_blocks(task, dataset)[:3]:
            for layer in block.layers:
                assert cost.layer_forward_time(layer, batch) == oracle_layer_forward_time(
                    gpu, layer, batch
                )
                assert cost.layer_backward_time(layer, batch) == oracle_layer_backward_time(
                    gpu, layer, batch
                )

    def test_every_layer_kind_and_batch_range_is_covered(self):
        kinds = {
            layer.kind
            for task in VALID_TASKS
            for dataset in VALID_DATASETS
            for block in pair_blocks(task, dataset)
            for layer in block.layers
        }
        assert {"conv", "dwconv", "bn", "relu"} <= kinds

    def test_unknown_layer_kind_uses_the_default_cap(self):
        layer = L.LayerSpec("odd", "exotic", (8, 4, 4), (8, 4, 4), params=0, macs=512.0)
        block = BlockSpec(name="b", index=0, layers=(layer,))
        for gpu in GPUS:
            cost = CostModel(gpu=gpu)
            for batch in (1, 7, 256):
                assert cost.block_forward_time(block, batch) == oracle_layer_forward_time(
                    gpu, layer, batch
                )

    def test_negative_batch_and_negative_work_raise_like_the_oracle(self):
        block = pair_blocks("nas", "cifar10")[0]
        cost = CostModel(gpu=RTX_A6000)
        with pytest.raises(ConfigurationError, match="batch must be non-negative"):
            cost.block_forward_time(block, -1)
        with pytest.raises(ConfigurationError, match="batch must be non-negative"):
            cost.block_backward_time(block, -3)
        bad = L.LayerSpec("bad", "conv", (4,), (4,), params=0, macs=-1.0)
        with pytest.raises(ConfigurationError, match="macs must be non-negative") as new:
            cost.layer_forward_time(bad, 2)
        with pytest.raises(ConfigurationError) as old:
            oracle_layer_forward_time(RTX_A6000, bad, 2)
        assert str(new.value) == str(old.value)
