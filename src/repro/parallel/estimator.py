"""Analytical stage-time estimates used by the planners.

Both the TR planner (choosing the best contiguous block-to-device split) and
the AHD search (additionally splitting stages along the batch dimension) need
to score candidate assignments quickly.  The estimator computes, for a stage
``(blocks, device group)`` at a global batch size, the per-step busy time of
one device in the group: teacher forward, student rounds, weight update,
gradient all-reduce (if the stage is replicated), and the data-loading time
if the stage contains block 0.

In steady state with decoupled parameter updates, the pipeline's throughput
is set by the slowest stage (§IV-C: "the system throughput is determined by
the throughput of the slowest device"), so a plan's score is simply the
maximum stage time.  :func:`search_pipeline_plans` is the one scoring loop
the TR and AHD planners share: it scores candidates in enumeration order and
estimates each distinct stage once per search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.data.dataset import DatasetSpec
from repro.data.loader import DataLoadModel
from repro.errors import ScheduleError
from repro.hardware.server import ServerSpec
from repro.models.layers import BYTES_PER_ELEMENT
from repro.models.pairs import DistillationPair
from repro.parallel.plan import SchedulePlan, StageAssignment
from repro.parallel.profiler import ProfileTable


@dataclass(frozen=True)
class StageTimeEstimate:
    """Decomposed per-step time of one stage."""

    teacher: float
    student: float
    update: float
    allreduce: float
    data_load: float
    relay: float

    @property
    def compute(self) -> float:
        return self.teacher + self.student + self.update

    @property
    def total(self) -> float:
        """Per-step busy time.

        Data loading and activation relaying overlap with compute (paper
        §IV-A); they only matter if they exceed the compute time, so the
        stage time is the max of the compute path and each overlapped path.
        """
        overlapped = max(self.data_load, self.relay)
        return max(self.compute + self.allreduce, overlapped)


class StageTimeEstimator:
    """Scores stage assignments against a profile table."""

    def __init__(
        self,
        pair: DistillationPair,
        server: ServerSpec,
        dataset: DatasetSpec,
        profile: ProfileTable,
    ) -> None:
        self.pair = pair
        self.server = server
        self.dataset = dataset
        self.profile = profile
        self.loader = DataLoadModel(dataset=dataset, host=server.host)

    # ------------------------------------------------------------------ #
    def stage_time(
        self,
        block_ids: Sequence[int],
        num_replicas: int,
        global_batch: int,
        concurrent_loaders: int = 1,
    ) -> StageTimeEstimate:
        """Per-step time of a stage handling ``block_ids`` on ``num_replicas`` devices."""
        if num_replicas <= 0:
            raise ScheduleError("num_replicas must be positive")
        if not block_ids:
            raise ScheduleError("a stage must contain at least one block")
        first_block = block_ids[0]
        last_block = block_ids[-1]
        if (
            first_block < 0
            or last_block >= self.pair.num_blocks
            or list(block_ids) != list(range(first_block, last_block + 1))
        ):
            raise ScheduleError(
                f"stage blocks {tuple(block_ids)} are not contiguous within "
                f"0..{self.pair.num_blocks - 1}"
            )
        micro_batch = max(1, -(-global_batch // num_replicas))  # ceil division

        teacher_time = 0.0
        student_time = 0.0
        update_time = 0.0
        grad_bytes = 0.0
        for block_id in block_ids:
            entry = self.profile.lookup(block_id, micro_batch)
            teacher_time += entry.teacher_forward
            student_time += self.pair.student_rounds_per_step * entry.student_training
            update_time += entry.weight_update
            grad_bytes += self.pair.student.block(block_id).params * BYTES_PER_ELEMENT

        allreduce_time = 0.0
        if num_replicas > 1:
            allreduce_time = self.server.interconnect.allreduce_time(grad_bytes, num_replicas)

        data_load_time = 0.0
        if first_block == 0:
            data_load_time = self.loader.batch_load_time(
                micro_batch, concurrent_loaders=max(concurrent_loaders, num_replicas)
            )

        relay_time = 0.0
        if last_block < self.pair.num_blocks - 1:
            boundary_bytes = (
                self.pair.teacher.block(last_block).output_bytes_per_sample * micro_batch
            )
            relay_time = self.server.interconnect.transfer_time(boundary_bytes)

        return StageTimeEstimate(
            teacher=teacher_time,
            student=student_time,
            update=update_time,
            allreduce=allreduce_time,
            data_load=data_load_time,
            relay=relay_time,
        )

    # ------------------------------------------------------------------ #
    def plan_step_time(self, plan: SchedulePlan) -> float:
        """Estimated steady-state step time of a pipeline plan (max stage time)."""
        if plan.kind != "pipeline":
            raise ScheduleError("plan_step_time only applies to pipeline plans")
        first_stage_replicas = plan.stages[0].num_devices
        times = []
        for stage in plan.stages:
            estimate = self.stage_time(
                stage.block_ids,
                stage.num_devices,
                plan.batch_size,
                concurrent_loaders=first_stage_replicas,
            )
            times.append(estimate.total)
        return max(times)

    def stage_estimates(self, plan: SchedulePlan) -> Tuple[StageTimeEstimate, ...]:
        """Per-stage estimates of a pipeline plan, in stage order."""
        if plan.kind != "pipeline":
            raise ScheduleError("stage_estimates only applies to pipeline plans")
        first_stage_replicas = plan.stages[0].num_devices
        return tuple(
            self.stage_time(
                stage.block_ids,
                stage.num_devices,
                plan.batch_size,
                concurrent_loaders=first_stage_replicas,
            )
            for stage in plan.stages
        )


def stage_assignments_from_partition(
    partition: Sequence[Sequence[int]], device_counts: Sequence[int]
) -> Tuple[StageAssignment, ...]:
    """Build stage assignments from a block partition and per-stage device counts.

    Devices are assigned contiguously in stage order: stage 0 gets devices
    ``0 .. device_counts[0]-1`` and so on — matching the paper's Fig. 3d where
    early (heavier) stages get the lower-ranked devices.
    """
    if len(partition) != len(device_counts):
        raise ScheduleError("partition and device_counts must have equal length")
    stages = []
    next_device = 0
    for stage_id, (blocks, count) in enumerate(zip(partition, device_counts)):
        if count <= 0:
            raise ScheduleError(f"stage {stage_id} has non-positive device count")
        devices = tuple(range(next_device, next_device + count))
        next_device += count
        stages.append(
            StageAssignment(stage_id=stage_id, block_ids=tuple(blocks), device_ids=devices)
        )
    return tuple(stages)


#: A planner candidate: contiguous block groups and per-stage device counts.
Candidate = Tuple[Sequence[Sequence[int]], Sequence[int]]


def search_pipeline_plans(
    estimator: StageTimeEstimator,
    candidates: Iterable[Candidate],
    global_batch: int,
    make_plan: Callable[[Sequence[Sequence[int]], Sequence[int]], SchedulePlan],
    keep_candidates: bool = False,
) -> Tuple[SchedulePlan, float, List[Tuple[SchedulePlan, float]]]:
    """Score pipeline candidates by max stage time; return the first minimum.

    Each candidate's step time is the max of its stage totals, which is what
    :meth:`StageTimeEstimator.plan_step_time` returns for the same plan.  A
    stage total depends only on ``(first_block, num_stage_blocks, replicas)``
    plus the first stage's loader count when the stage loads data, so each
    distinct stage is estimated once per search.  The first candidate with
    the strictly smallest time wins (enumeration order breaks ties).  Only the
    winner builds a :class:`SchedulePlan` unless ``keep_candidates`` is set,
    in which case every candidate does and comes back, in enumeration order,
    as ``(plan, step_time)`` in the third element.
    """
    totals: Dict[Tuple[int, int, int, int], float] = {}
    kept: List[Tuple[SchedulePlan, float]] = []
    best = None
    best_index = -1
    best_time = float("inf")
    for index, (partition, device_counts) in enumerate(candidates):
        loaders = device_counts[0]
        stage_totals = []
        for blocks, replicas in zip(partition, device_counts):
            key = (blocks[0], len(blocks), replicas, loaders if blocks[0] == 0 else 0)
            total = totals.get(key)
            if total is None:
                total = totals[key] = estimator.stage_time(
                    blocks, replicas, global_batch, concurrent_loaders=loaders
                ).total
            stage_totals.append(total)
        step_time = max(stage_totals)
        if keep_candidates:
            kept.append((make_plan(partition, device_counts), step_time))
        if best is None or step_time < best_time:
            best, best_index, best_time = (partition, device_counts), index, step_time
    if best is None:
        raise ScheduleError("the planner search produced no candidates")
    plan = kept[best_index][0] if keep_candidates else make_plan(*best)
    return plan, best_time, kept
