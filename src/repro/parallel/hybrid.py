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
and the minimum-makespan candidate wins.  The paper argues this exhaustive
search is cheap because B and N are both around ten; :func:`search_space_size`
and the ablation benchmark quantify that claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.data.dataset import DatasetSpec
from repro.hardware.server import ServerSpec
from repro.models.pairs import DistillationPair
from repro.parallel.estimator import (
    StageTimeEstimator,
    search_pipeline_plans,
    stage_assignments_from_partition,
)
from repro.parallel.partition import (
    compositions,
    contiguous_partitions,
    count_contiguous_partitions,
)
from repro.parallel.plan import SchedulePlan
from repro.parallel.profiler import ProfileTable


@dataclass(frozen=True)
class AHDCandidate:
    """One evaluated point of the AHD search."""

    plan: SchedulePlan
    step_time: float


@dataclass
class AHDSearchResult:
    """Best plan plus the full ranked candidate list (for analysis benches)."""

    best: AHDCandidate
    candidates: Tuple[AHDCandidate, ...]

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)


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
    keep_candidates: bool = False,
) -> AHDSearchResult:
    """Exhaustively search hybrid block/batch distributions."""
    num_devices = server.num_devices
    num_blocks = pair.num_blocks
    max_stages = min(num_blocks, num_devices)

    def make_plan(partition, device_counts) -> SchedulePlan:
        stages = stage_assignments_from_partition(partition, device_counts)
        return SchedulePlan(
            kind="pipeline",
            strategy="TR+DPU+AHD",
            batch_size=batch_size,
            num_devices=num_devices,
            num_blocks=num_blocks,
            decoupled_update=True,
            stages=stages,
        )

    def candidates():
        for num_stages in range(1, max_stages + 1):
            device_splits = tuple(compositions(num_devices, num_stages))
            for partition in contiguous_partitions(num_blocks, num_stages):
                for device_counts in device_splits:
                    yield partition, device_counts

    estimator = StageTimeEstimator(pair=pair, server=server, dataset=dataset, profile=profile)
    best_plan, best_time, scored = search_pipeline_plans(
        estimator,
        candidates(),
        batch_size,
        make_plan,
        keep_candidates=keep_candidates,
    )
    best = AHDCandidate(plan=best_plan, step_time=best_time)
    kept = [AHDCandidate(plan=plan, step_time=step_time) for plan, step_time in scored]
    best.plan.metadata["estimated_step_time"] = best.step_time
    best.plan.metadata["search_space_size"] = search_space_size(num_blocks, num_devices)
    best.plan.metadata["profiling_cost_s"] = profile.profiling_cost_s
    kept.sort(key=lambda candidate: candidate.step_time)
    return AHDSearchResult(best=best, candidates=tuple(kept))


def build_ahd_plan(
    pair: DistillationPair,
    server: ServerSpec,
    batch_size: int,
    profile: ProfileTable,
    dataset: DatasetSpec,
) -> SchedulePlan:
    """Build the full Pipe-BD plan (TR + DPU + AHD)."""
    return search_ahd(pair, server, batch_size, profile, dataset).best.plan
