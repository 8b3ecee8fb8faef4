"""Teacher relaying (paper §IV-A, Fig. 3b).

Teacher relaying distributes the teacher and student blocks exclusively over
the devices in contiguous groups; each device executes its teacher blocks on
the full batch and relays the boundary activation to the next device, which
uses it as the input of both its teacher and student blocks.  This removes
the redundant teacher prefix execution and the per-block data loading, and
every device now works on the full batch (better utilization).

Block-to-device assignment uses the "naive distribution" of §IV-C: the best
*contiguous* split of blocks over devices (one device per stage) of the
C(B-1, N-1) candidates, by profiled block times.  It is the AHD search
(:func:`~repro.parallel.estimator.search_pipeline_plans`) with one stage
count, min(N, B), and one device per stage.
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
    estimator = StageTimeEstimator(pair=pair, server=server, dataset=dataset, profile=profile)
    # As many devices as stages: each stage gets exactly one.
    partition, device_counts, step_time = search_pipeline_plans(
        estimator, batch_size, num_stages, (num_stages,)
    )
    plan = SchedulePlan(
        kind="pipeline",
        strategy="TR+DPU" if decoupled_update else "TR",
        batch_size=batch_size,
        num_devices=num_devices,
        num_blocks=num_blocks,
        decoupled_update=decoupled_update,
        stages=stage_assignments_from_partition(partition, device_counts),
    )
    plan.metadata["estimated_step_time"] = step_time
    plan.metadata["description"] = (
        "contiguous block groups, one device per stage, activations relayed"
    )
    return plan
