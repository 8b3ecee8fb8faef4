"""Automatic hybrid distribution (paper §IV-C, Fig. 3d).

AHD adds a second degree of freedom to the block-to-device assignment: a
stage (a contiguous group of blocks) may be replicated over several devices
that split the batch among themselves, trading some per-device utilization
for balance.  The search space is therefore:

    for every number of stages k = 1 .. N
      for every contiguous partition of the B blocks into k groups
        for every composition of the N devices into k positive group sizes

Every candidate is scored with the profiled per-(block, batch) times — the
steady-state throughput of a decoupled pipeline is the maximum stage time —
and the minimum-makespan candidate wins, the first in that order on a tie.
The paper argues exhaustive search is cheap because B and N are both around
ten; :func:`search_space_size` counts the space (376,992 candidates at 6
blocks and 32 GPUs).  The search does not enumerate it:
:func:`~repro.parallel.estimator.search_pipeline_plans` walks the partitions
and picks each one's device counts with a min-max DP, to the same winner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.dataset import DatasetSpec
from repro.hardware.server import ServerSpec
from repro.models.pairs import DistillationPair
from repro.parallel.estimator import (
    StageTimeEstimator,
    search_pipeline_plans,
    stage_assignments_from_partition,
)
from repro.parallel.partition import count_contiguous_partitions
from repro.parallel.plan import SchedulePlan
from repro.parallel.profiler import ProfileTable


@dataclass(frozen=True)
class AHDCandidate:
    """One point of the AHD search space: a plan and its estimated step time."""

    plan: SchedulePlan
    step_time: float


@dataclass
class AHDSearchResult:
    """The AHD search's winner."""

    best: AHDCandidate


def search_space_size(num_blocks: int, num_devices: int) -> int:
    """Number of (partition, device composition) candidates AHD evaluates."""
    from math import comb

    total = 0
    for num_stages in range(1, min(num_blocks, num_devices) + 1):
        partitions = count_contiguous_partitions(num_blocks, num_stages)
        device_splits = comb(num_devices - 1, num_stages - 1)
        total += partitions * device_splits
    return total


def search_ahd(
    pair: DistillationPair,
    server: ServerSpec,
    batch_size: int,
    profile: ProfileTable,
    dataset: DatasetSpec,
) -> AHDSearchResult:
    """Search hybrid block/batch distributions for the minimum step time."""
    num_devices = server.num_devices
    num_blocks = pair.num_blocks
    estimator = StageTimeEstimator(pair=pair, server=server, dataset=dataset, profile=profile)
    partition, device_counts, step_time = search_pipeline_plans(
        estimator, batch_size, num_devices, range(1, min(num_blocks, num_devices) + 1)
    )
    plan = SchedulePlan(
        kind="pipeline",
        strategy="TR+DPU+AHD",
        batch_size=batch_size,
        num_devices=num_devices,
        num_blocks=num_blocks,
        decoupled_update=True,
        stages=stage_assignments_from_partition(partition, device_counts),
    )
    plan.metadata["estimated_step_time"] = step_time
    plan.metadata["search_space_size"] = search_space_size(num_blocks, num_devices)
    plan.metadata["profiling_cost_s"] = profile.profiling_cost_s
    return AHDSearchResult(best=AHDCandidate(plan=plan, step_time=step_time))


def build_ahd_plan(
    pair: DistillationPair,
    server: ServerSpec,
    batch_size: int,
    profile: ProfileTable,
    dataset: DatasetSpec,
) -> SchedulePlan:
    """Build the full Pipe-BD plan (TR + DPU + AHD)."""
    return search_ahd(pair, server, batch_size, profile, dataset).best.plan
