"""LS baseline: layerwise scheduling with bin packing (paper §II-B).

The alternative baseline (Blakeney et al., TPDS 2021) treats the training of
each block as an independent task and bin-packs the tasks onto devices to
balance the load.  Each device trains its assigned blocks with the *full*
batch (no data parallelism, no gradient communication), but still pays the
redundant teacher prefix execution for every assigned block and loads the
data once per device.

The paper observes that LS beats DP on CIFAR-10 but loses on ImageNet, where
"the composition of the neural networks ... typically has a few heavy
blocks" and bin packing cannot split them (§VII-A) — a behaviour this
implementation reproduces because the block cost used for packing includes
the teacher prefix, which is dominated by block 0 at ImageNet resolution.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ScheduleError
from repro.fold import left_sum
from repro.hardware.server import ServerSpec
from repro.models.pairs import DistillationPair
from repro.parallel.partition import lpt_bin_packing
from repro.parallel.plan import SchedulePlan
from repro.parallel.profiler import ProfileTable


def block_task_cost(pair: DistillationPair, profile: ProfileTable, block_id: int, batch: int) -> float:
    """Per-step cost of training one block on a single device with the full batch.

    Includes the teacher forward over blocks ``0..block_id`` (the redundant
    prefix) plus the student's forward/backward rounds and update.
    """
    teacher_prefix = left_sum(
        profile.teacher_time(prefix_block, batch) for prefix_block in range(block_id + 1)
    )
    return teacher_prefix + profile.student_step_time(block_id, batch)


def build_ls_plan(
    pair: DistillationPair,
    server: ServerSpec,
    batch_size: int,
    profile: ProfileTable,
) -> SchedulePlan:
    """Build the LS baseline plan by LPT bin packing of per-block task costs."""
    if not profile.has(0, batch_size):
        raise ScheduleError(
            f"profile table has no entries at the full batch size {batch_size}; "
            "profile with extra_batches=(batch_size,)"
        )
    costs: Tuple[float, ...] = tuple(
        block_task_cost(pair, profile, block_id, batch_size)
        for block_id in range(pair.num_blocks)
    )
    bins = lpt_bin_packing(costs, server.num_devices)
    device_blocks: Dict[int, Tuple[int, ...]] = {
        device: blocks for device, blocks in enumerate(bins) if blocks
    }
    return SchedulePlan(
        kind="layerwise",
        strategy="LS",
        batch_size=batch_size,
        num_devices=server.num_devices,
        num_blocks=pair.num_blocks,
        decoupled_update=True,  # devices are fully independent
        device_blocks=device_blocks,
        metadata={
            "block_costs": costs,
            "description": "bin-packed independent block tasks, full batch per device",
        },
    )
