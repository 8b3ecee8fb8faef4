"""Teacher relaying (paper §IV-A, Fig. 3b).

Teacher relaying distributes the teacher and student blocks exclusively over
the devices in contiguous groups; each device executes its teacher blocks on
the full batch and relays the boundary activation to the next device, which
uses it as the input of both its teacher and student blocks.  This removes
the redundant teacher prefix execution and the per-block data loading, and
every device now works on the full batch (better utilization).

Block-to-device assignment uses the "naive distribution" of §IV-C: the best
*contiguous* split of blocks over devices (one device per stage), chosen
exhaustively from the C(B-1, N-1) candidates using profiled block times.
Without AHD there is no batch splitting, which is exactly why imbalanced
workloads (ImageNet's heavy block 0) leave bubbles that DPU alone cannot
remove.
"""

from __future__ import annotations

from repro.data.dataset import DatasetSpec
from repro.errors import ScheduleError
from repro.hardware.server import ServerSpec
from repro.models.pairs import DistillationPair
from repro.parallel.estimator import (
    StageTimeEstimator,
    search_pipeline_plans,
    stage_assignments_from_partition,
)
from repro.parallel.partition import contiguous_partitions
from repro.parallel.plan import SchedulePlan
from repro.parallel.profiler import ProfileTable


def build_tr_plan(
    pair: DistillationPair,
    server: ServerSpec,
    batch_size: int,
    profile: ProfileTable,
    dataset: DatasetSpec,
    decoupled_update: bool = False,
) -> SchedulePlan:
    """Build a teacher-relaying plan with the best contiguous block split."""
    num_devices = server.num_devices
    num_blocks = pair.num_blocks
    num_stages = min(num_devices, num_blocks)
    if num_stages < 1:
        raise ScheduleError("need at least one device and one block")
    strategy = "TR+DPU" if decoupled_update else "TR"

    def make_plan(partition, device_counts) -> SchedulePlan:
        return SchedulePlan(
            kind="pipeline",
            strategy=strategy,
            batch_size=batch_size,
            num_devices=num_devices,
            num_blocks=num_blocks,
            decoupled_update=decoupled_update,
            stages=stage_assignments_from_partition(partition, device_counts),
        )

    estimator = StageTimeEstimator(pair=pair, server=server, dataset=dataset, profile=profile)
    one_device_each = (1,) * num_stages
    best_plan, best_time, _ = search_pipeline_plans(
        estimator,
        (
            (partition, one_device_each)
            for partition in contiguous_partitions(num_blocks, num_stages)
        ),
        batch_size,
        make_plan,
    )
    best_plan.metadata["estimated_step_time"] = best_time
    best_plan.metadata["description"] = (
        "contiguous block groups, one device per stage, activations relayed"
    )
    return best_plan
