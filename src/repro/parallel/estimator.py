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
maximum stage time: a bottleneck partition problem (Bokhari, IEEE ToC 1988;
PipeDream's planner, SOSP 2019), which :func:`search_pipeline_plans` solves
exactly for TR and AHD with a min-max DP per contiguous block partition.
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
from repro.parallel.partition import Partition, contiguous_partitions
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


def search_pipeline_plans(
    estimator: StageTimeEstimator,
    global_batch: int,
    num_devices: int,
    stage_counts: Iterable[int],
) -> Tuple[Partition, Tuple[int, ...], float]:
    """:func:`bottleneck_search` on the estimator's stage totals at ``global_batch``."""

    def stage_total(first_block: int, size: int, replicas: int) -> float:
        blocks = range(first_block, first_block + size)
        return estimator.stage_time(
            blocks, replicas, global_batch, concurrent_loaders=replicas
        ).total

    return bottleneck_search(stage_total, estimator.pair.num_blocks, num_devices, stage_counts)


def bottleneck_search(
    stage_total: Callable[[int, int, int], float],
    num_blocks: int,
    num_devices: int,
    stage_counts: Iterable[int],
) -> Tuple[Partition, Tuple[int, ...], float]:
    """Exact min-max search over block partitions and device counts.

    A candidate splits blocks ``0..num_blocks-1`` into ``k`` (from
    ``stage_counts``) contiguous stages and gives stage ``i`` ``r_i >= 1`` of
    the ``num_devices`` devices; its step time is the max over stages of
    ``stage_total(first_block, size, r_i)``.  Returns ``(partition,
    device_counts, step_time)`` of the first candidate with the smallest step
    time in order of stage count, partition (:func:`contiguous_partitions`
    order) and device counts (lexicographic).  Per partition, a min-max DP
    over the spare devices, ``g[i][e] = min over x of max(total_i(1 + x),
    g[i+1][e - x])``, replaces enumerating device counts; max and min of the
    same floats are exact, so the winner is the enumeration's to the bit.
    A stage loads data only when it holds block 0, with its own replicas as
    loaders, so each ``(first_block, size, replicas)`` total is computed once.
    """
    # rows[first_block, size][x]: that stage's total on 1 + x devices.
    rows: Dict[Tuple[int, int], List[float]] = {}
    best = None
    best_time = float("inf")
    for num_stages in stage_counts:
        spare = num_devices - num_stages
        if spare < 0:
            continue
        for partition in contiguous_partitions(num_blocks, num_stages):
            if num_stages == 1:  # one stage takes every device
                optimum, stage_rows, suffixes = stage_total(0, num_blocks, num_devices), [], []
            else:
                stage_rows = []
                for group in partition:
                    row = rows.setdefault((group[0], len(group)), [])
                    if len(row) <= spare:
                        row += [
                            stage_total(group[0], len(group), replicas)
                            for replicas in range(len(row) + 1, spare + 2)
                        ]
                    stage_rows.append(row)
                # suffixes[j][e]: the best max over the last j + 1 stages on e
                # spare devices; x of them to a stage leave e - x after it.
                suffix = stage_rows[-1]
                suffixes = [suffix]
                for row in stage_rows[-2:0:-1]:
                    suffix = [min(map(max, row, suffix[e::-1])) for e in range(spare + 1)]
                    suffixes.append(suffix)
                optimum = min(map(max, stage_rows[0], suffix[spare::-1]))
            if optimum < best_time or best is None:
                best, best_time = (partition, spare, stage_rows, suffixes), optimum
    if best is None:
        raise ScheduleError("the planner search has no candidates")
    partition, spare, stage_rows, suffixes = best
    # The lexicographically first device counts at the optimum: each stage
    # takes the fewest spare devices that keep it and the rest at or under it.
    device_counts = []
    for row, after in zip(stage_rows, reversed(suffixes)):
        extra = next(
            x for x in range(spare + 1) if row[x] <= best_time and after[spare - x] <= best_time
        )
        device_counts.append(1 + extra)
        spare -= extra
    device_counts.append(1 + spare)  # the last stage takes what is left
    return partition, tuple(device_counts), best_time
