"""Lowering schedule plans onto the discrete-event simulator.

The :class:`ScheduleExecutor` turns a :class:`~repro.parallel.plan.SchedulePlan`
into a task graph (data loads, teacher forwards, student forwards/backwards,
activation transfers, gradient all-reduces, weight updates, and — for
non-decoupled plans — step barriers), runs it with the
:class:`~repro.sim.engine.SimulationEngine`, and converts the resulting trace
into the quantities the paper reports:

* per-epoch elapsed time (Table II),
* per-step time and breakdowns (Fig. 2),
* per-rank peak memory (Fig. 7).

The DP baseline trains blocks one after another, so it is executed as one
simulation per block and the results are summed; pipeline plans (TR and its
variants) and the LS baseline are executed as a single multi-step simulation
from which the steady-state step time is extracted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.data.dataset import DatasetSpec
from repro.data.loader import DataLoadModel
from repro.errors import ScheduleError
from repro.hardware.cost_model import CostModel
from repro.hardware.server import ServerSpec
from repro.models.layers import BYTES_PER_ELEMENT
from repro.models.pairs import DistillationPair
from repro.parallel.plan import SchedulePlan, jsonable, plan_from_dict
from repro.sim.engine import SimulationEngine
from repro.sim.events import TaskKind
from repro.sim.metrics import BREAKDOWN_CATEGORIES, compute_breakdown
from repro.sim.resources import collective, device_compute, device_link, host_loader
from repro.sim.trace import Trace

#: Default number of training steps simulated to reach steady state.
DEFAULT_SIMULATED_STEPS = 10
#: Warm-up steps excluded from the steady-state step-time measurement.
WARMUP_STEPS = 2


@dataclass
class ExecutionResult:
    """Measured outcome of executing one plan on the simulated server."""

    plan: SchedulePlan
    epoch_time: float
    step_time: float
    steps_per_epoch: int
    breakdown: Dict[int, Dict[str, float]]
    peak_memory_bytes: Dict[int, float]
    trace: Optional[Trace] = None
    metadata: dict = field(default_factory=dict)

    @property
    def strategy(self) -> str:
        return self.plan.strategy

    def total_breakdown(self) -> Dict[str, float]:
        """Breakdown summed over devices (seconds of device-time per epoch)."""
        totals = {category: 0.0 for category in BREAKDOWN_CATEGORIES}
        for per_device in self.breakdown.values():
            for category, value in per_device.items():
                totals[category] = totals.get(category, 0.0) + value
        return totals

    def max_memory_gb(self) -> float:
        """Largest per-rank allocation in GB (the paper's Fig. 7 'Max.' bar)."""
        if not self.peak_memory_bytes:
            return 0.0
        return max(self.peak_memory_bytes.values()) / 1e9

    def describe(self) -> str:
        return (
            f"{self.strategy}: epoch={self.epoch_time:.2f}s "
            f"step={self.step_time * 1e3:.2f}ms "
            f"max_mem={self.max_memory_gb():.2f}GB"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable summary (the trace is intentionally omitted).

        Carries the full plan and raw peak-memory bytes so
        :meth:`from_dict` can rebuild an equivalent result — this is the
        record shape the persistent experiment store holds.
        """
        return {
            "strategy": self.strategy,
            "plan_kind": self.plan.kind,
            "plan": self.plan.to_dict(),
            "batch_size": self.plan.batch_size,
            "num_devices": self.plan.num_devices,
            "epoch_time_s": self.epoch_time,
            "step_time_s": self.step_time,
            "steps_per_epoch": self.steps_per_epoch,
            "breakdown_s": {
                str(device): {name: categories[name] for name in sorted(categories)}
                for device, categories in sorted(self.breakdown.items())
            },
            "peak_memory_bytes": {
                str(device): bytes_
                for device, bytes_ in sorted(self.peak_memory_bytes.items())
            },
            "peak_memory_gb": {
                str(device): bytes_ / 1e9
                for device, bytes_ in sorted(self.peak_memory_bytes.items())
            },
            "max_memory_gb": self.max_memory_gb(),
            "metadata": jsonable(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutionResult":
        """Rebuild a result from :meth:`to_dict` (store hydration path).

        The trace is gone (it was never serialised), but every quantity the
        analysis layer consumes — epoch/step time, breakdowns, peak memory,
        the validated plan — round-trips exactly.
        """
        return cls(
            plan=plan_from_dict(payload["plan"]),
            epoch_time=payload["epoch_time_s"],
            step_time=payload["step_time_s"],
            steps_per_epoch=payload["steps_per_epoch"],
            breakdown={
                int(device): dict(categories)
                for device, categories in payload["breakdown_s"].items()
            },
            peak_memory_bytes={
                int(device): bytes_
                for device, bytes_ in payload["peak_memory_bytes"].items()
            },
            trace=None,
            metadata=payload.get("metadata", {}),
        )


class ScheduleExecutor:
    """Executes schedule plans for one (pair, server, dataset) combination."""

    def __init__(
        self,
        pair: DistillationPair,
        server: ServerSpec,
        dataset: DatasetSpec,
        simulated_steps: int = DEFAULT_SIMULATED_STEPS,
    ) -> None:
        if simulated_steps < WARMUP_STEPS + 2:
            raise ScheduleError(
                f"simulated_steps must be at least {WARMUP_STEPS + 2}, got {simulated_steps}"
            )
        self.pair = pair
        self.server = server
        self.dataset = dataset
        self.simulated_steps = simulated_steps
        self.cost_model: CostModel = server.cost_model()
        self.loader = DataLoadModel(dataset=dataset, host=server.host)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def execute(self, plan: SchedulePlan) -> ExecutionResult:
        """Execute a plan and return its measured result."""
        if plan.num_blocks != self.pair.num_blocks:
            raise ScheduleError(
                f"plan covers {plan.num_blocks} blocks but the pair has {self.pair.num_blocks}"
            )
        if plan.num_devices != self.server.num_devices:
            raise ScheduleError(
                f"plan targets {plan.num_devices} devices but the server has "
                f"{self.server.num_devices}"
            )
        if plan.kind == "pipeline":
            return self._execute_pipeline(plan)
        if plan.kind == "layerwise":
            return self._execute_layerwise(plan)
        return self._execute_data_parallel(plan)

    # ------------------------------------------------------------------ #
    # Shared duration helpers
    # ------------------------------------------------------------------ #
    def _teacher_time(self, block_ids, batch: int) -> float:
        return sum(
            self.cost_model.block_forward_time(self.pair.teacher.block(block_id), batch)
            for block_id in block_ids
        )

    def _student_forward_time(self, block_ids, batch: int) -> float:
        rounds = self.pair.student_rounds_per_step
        return rounds * sum(
            self.cost_model.block_forward_time(self.pair.student.block(block_id), batch)
            for block_id in block_ids
        )

    def _student_backward_time(self, block_ids, batch: int) -> float:
        rounds = self.pair.student_rounds_per_step
        return rounds * sum(
            self.cost_model.block_backward_time(self.pair.student.block(block_id), batch)
            for block_id in block_ids
        )

    def _update_time(self, block_ids) -> float:
        return sum(
            self.cost_model.weight_update_time(self.pair.student.block(block_id))
            for block_id in block_ids
        )

    def _grad_bytes(self, block_ids) -> float:
        return float(
            sum(self.pair.student.block(block_id).params for block_id in block_ids)
            * BYTES_PER_ELEMENT
        )

    def _boundary_bytes(self, block_id: int, batch: int) -> float:
        return float(self.pair.teacher.block(block_id).output_bytes_per_sample * batch)

    # ------------------------------------------------------------------ #
    # Pipeline plans (TR, TR+DPU, TR+DPU+AHD, TR+IR)
    # ------------------------------------------------------------------ #
    def _execute_pipeline(self, plan: SchedulePlan) -> ExecutionResult:
        engine = SimulationEngine()
        stages = plan.stages
        steps = self.simulated_steps

        # Per-stage durations (identical for every replica in a stage).
        durations = {}
        for stage in stages:
            micro_batch = stage.per_device_batch(plan.batch_size)
            durations[stage.stage_id] = {
                "micro_batch": micro_batch,
                "teacher": self._teacher_time(stage.block_ids, micro_batch),
                "student_fwd": self._student_forward_time(stage.block_ids, micro_batch),
                "student_bwd": self._student_backward_time(stage.block_ids, micro_batch),
                "update": self._update_time(stage.block_ids),
                "allreduce": (
                    self.server.interconnect.allreduce_time(
                        self._grad_bytes(stage.block_ids), stage.num_devices
                    )
                    if stage.num_devices > 1
                    else 0.0
                ),
                "load": self.loader.batch_load_time(micro_batch, concurrent_loaders=1),
                "recv": (
                    self.server.interconnect.transfer_time(
                        self._boundary_bytes(stage.block_ids[0] - 1, micro_batch)
                    )
                    if stage.block_ids[0] > 0
                    else 0.0
                ),
            }

        teacher_task_ids: Dict[Tuple[int, int], List[int]] = {}
        previous_step_updates: List[int] = []
        last_compute_of_device: Dict[int, int] = {}

        for step in range(steps):
            step_updates: List[int] = []
            for stage in stages:
                timing = durations[stage.stage_id]
                backward_ids: List[int] = []
                pre_update_ids: Dict[int, int] = {}
                for replica_index, device in enumerate(stage.device_ids):
                    barrier_deps = tuple(previous_step_updates) if not plan.decoupled_update else ()

                    # --- input: data load (stage 0) or activation receive --- #
                    if stage.stage_id == 0:
                        input_dep = engine.add_task(
                            name=f"load[s{step},d{device}]",
                            kind=TaskKind.DATA_LOAD,
                            resource=host_loader(),
                            duration=timing["load"],
                            deps=(),
                            step=step,
                            device=device,
                        )
                    else:
                        previous_stage = stages[stage.stage_id - 1]
                        source_device = previous_stage.device_ids[
                            replica_index % previous_stage.num_devices
                        ]
                        producer_ids = teacher_task_ids[(step, stage.stage_id - 1)]
                        input_dep = engine.add_task(
                            name=f"recv[s{step},d{device}]",
                            kind=TaskKind.RECV,
                            resource=device_link(source_device, device),
                            duration=timing["recv"],
                            deps=tuple(producer_ids),
                            step=step,
                            device=device,
                        )

                    # --- teacher forward --- #
                    teacher_id = engine.add_task(
                        name=f"T[s{step},d{device}]",
                        kind=TaskKind.TEACHER_FORWARD,
                        resource=device_compute(device),
                        duration=timing["teacher"],
                        deps=(input_dep,) + barrier_deps,
                        step=step,
                        device=device,
                        block=stage.block_ids[0],
                    )
                    teacher_task_ids.setdefault((step, stage.stage_id), []).append(teacher_id)

                    # --- student forward / backward --- #
                    student_fwd = engine.add_task(
                        name=f"Sf[s{step},d{device}]",
                        kind=TaskKind.STUDENT_FORWARD,
                        resource=device_compute(device),
                        duration=timing["student_fwd"],
                        deps=(teacher_id,),
                        step=step,
                        device=device,
                        block=stage.block_ids[0],
                    )
                    student_bwd = engine.add_task(
                        name=f"Sb[s{step},d{device}]",
                        kind=TaskKind.STUDENT_BACKWARD,
                        resource=device_compute(device),
                        duration=timing["student_bwd"],
                        deps=(student_fwd,),
                        step=step,
                        device=device,
                        block=stage.block_ids[0],
                    )
                    backward_ids.append(student_bwd)
                    pre_update_ids[device] = student_bwd
                    last_compute_of_device[device] = student_bwd

                # --- gradient sharing within a replicated stage --- #
                allreduce_id: Optional[int] = None
                if stage.num_devices > 1 and timing["allreduce"] > 0.0:
                    # The collective runs on its own (NCCL) stream and largely
                    # overlaps with compute, so it is not attributed to any
                    # device's busy-time breakdown (device=-1).
                    allreduce_id = engine.add_task(
                        name=f"allreduce[s{step},stage{stage.stage_id}]",
                        kind=TaskKind.ALLREDUCE,
                        resource=collective(f"stage{stage.stage_id}"),
                        duration=timing["allreduce"],
                        deps=tuple(backward_ids),
                        step=step,
                        device=-1,
                    )

                # --- weight updates --- #
                for device in stage.device_ids:
                    update_deps = [pre_update_ids[device]]
                    if allreduce_id is not None:
                        update_deps.append(allreduce_id)
                    update_id = engine.add_task(
                        name=f"U[s{step},d{device}]",
                        kind=TaskKind.WEIGHT_UPDATE,
                        resource=device_compute(device),
                        duration=timing["update"],
                        deps=tuple(update_deps),
                        step=step,
                        device=device,
                        block=stage.block_ids[0],
                    )
                    step_updates.append(update_id)
                    last_compute_of_device[device] = update_id
            previous_step_updates = step_updates

        trace = engine.run()
        step_time = trace.steady_state_step_time(skip_first=WARMUP_STEPS)
        steps_per_epoch = self.dataset.steps_per_epoch(plan.batch_size)
        epoch_time = step_time * steps_per_epoch
        breakdown = self._scaled_breakdown(trace, epoch_time, steps_per_epoch, steps)
        memory = self._pipeline_memory(plan)
        return ExecutionResult(
            plan=plan,
            epoch_time=epoch_time,
            step_time=step_time,
            steps_per_epoch=steps_per_epoch,
            breakdown=breakdown,
            peak_memory_bytes=memory,
            trace=trace,
            metadata={"simulated_steps": steps},
        )

    # ------------------------------------------------------------------ #
    # Layerwise plans (LS)
    # ------------------------------------------------------------------ #
    def _execute_layerwise(self, plan: SchedulePlan) -> ExecutionResult:
        assert plan.device_blocks is not None
        engine = SimulationEngine()
        steps = self.simulated_steps
        batch = plan.batch_size
        load_time = self.loader.batch_load_time(batch, concurrent_loaders=1)

        for step in range(steps):
            for device, block_ids in sorted(plan.device_blocks.items()):
                max_block = max(block_ids)
                prefix_blocks = tuple(range(max_block + 1))
                load_id = engine.add_task(
                    name=f"load[s{step},d{device}]",
                    kind=TaskKind.DATA_LOAD,
                    resource=host_loader(),
                    duration=load_time,
                    deps=(),
                    step=step,
                    device=device,
                )
                teacher_id = engine.add_task(
                    name=f"T0..{max_block}[s{step},d{device}]",
                    kind=TaskKind.TEACHER_FORWARD,
                    resource=device_compute(device),
                    duration=self._teacher_time(prefix_blocks, batch),
                    deps=(load_id,),
                    step=step,
                    device=device,
                    block=max_block,
                )
                previous = teacher_id
                for block_id in sorted(block_ids):
                    student_fwd = engine.add_task(
                        name=f"Sf{block_id}[s{step},d{device}]",
                        kind=TaskKind.STUDENT_FORWARD,
                        resource=device_compute(device),
                        duration=self._student_forward_time((block_id,), batch),
                        deps=(previous,),
                        step=step,
                        device=device,
                        block=block_id,
                    )
                    student_bwd = engine.add_task(
                        name=f"Sb{block_id}[s{step},d{device}]",
                        kind=TaskKind.STUDENT_BACKWARD,
                        resource=device_compute(device),
                        duration=self._student_backward_time((block_id,), batch),
                        deps=(student_fwd,),
                        step=step,
                        device=device,
                        block=block_id,
                    )
                    update_id = engine.add_task(
                        name=f"U{block_id}[s{step},d{device}]",
                        kind=TaskKind.WEIGHT_UPDATE,
                        resource=device_compute(device),
                        duration=self._update_time((block_id,)),
                        deps=(student_bwd,),
                        step=step,
                        device=device,
                        block=block_id,
                    )
                    previous = update_id

        trace = engine.run()
        step_time = trace.steady_state_step_time(skip_first=WARMUP_STEPS)
        steps_per_epoch = self.dataset.steps_per_epoch(batch)
        epoch_time = step_time * steps_per_epoch
        breakdown = self._scaled_breakdown(trace, epoch_time, steps_per_epoch, steps)
        memory = self._layerwise_memory(plan)
        return ExecutionResult(
            plan=plan,
            epoch_time=epoch_time,
            step_time=step_time,
            steps_per_epoch=steps_per_epoch,
            breakdown=breakdown,
            peak_memory_bytes=memory,
            trace=trace,
            metadata={"simulated_steps": steps},
        )

    # ------------------------------------------------------------------ #
    # Data-parallel plans (DP)
    # ------------------------------------------------------------------ #
    def _execute_data_parallel(self, plan: SchedulePlan) -> ExecutionResult:
        steps = max(4, WARMUP_STEPS + 2)
        micro_batch = max(1, plan.batch_size // plan.num_devices)
        steps_per_epoch = self.dataset.steps_per_epoch(plan.batch_size)
        load_time = self.loader.batch_load_time(micro_batch, concurrent_loaders=1)

        epoch_time = 0.0
        per_block_step_times: List[float] = []
        accumulated: Dict[int, Dict[str, float]] = {
            device: {category: 0.0 for category in BREAKDOWN_CATEGORIES}
            for device in range(plan.num_devices)
        }
        last_trace: Optional[Trace] = None

        for block_id in range(plan.num_blocks):
            engine = SimulationEngine()
            prefix_blocks = tuple(range(block_id + 1))
            teacher_time = self._teacher_time(prefix_blocks, micro_batch)
            student_fwd_time = self._student_forward_time((block_id,), micro_batch)
            student_bwd_time = self._student_backward_time((block_id,), micro_batch)
            update_time = self._update_time((block_id,))
            allreduce_time = self.server.interconnect.allreduce_time(
                self._grad_bytes((block_id,)), plan.num_devices
            )

            previous_step_updates: List[int] = []
            for step in range(steps):
                backward_ids: List[int] = []
                per_device_bwd: Dict[int, int] = {}
                for device in range(plan.num_devices):
                    load_id = engine.add_task(
                        name=f"load[b{block_id},s{step},d{device}]",
                        kind=TaskKind.DATA_LOAD,
                        resource=host_loader(),
                        duration=load_time,
                        deps=(),
                        step=step,
                        device=device,
                        block=block_id,
                    )
                    teacher_id = engine.add_task(
                        name=f"T0..{block_id}[s{step},d{device}]",
                        kind=TaskKind.TEACHER_FORWARD,
                        resource=device_compute(device),
                        duration=teacher_time,
                        deps=(load_id,) + tuple(previous_step_updates),
                        step=step,
                        device=device,
                        block=block_id,
                    )
                    student_fwd = engine.add_task(
                        name=f"Sf{block_id}[s{step},d{device}]",
                        kind=TaskKind.STUDENT_FORWARD,
                        resource=device_compute(device),
                        duration=student_fwd_time,
                        deps=(teacher_id,),
                        step=step,
                        device=device,
                        block=block_id,
                    )
                    student_bwd = engine.add_task(
                        name=f"Sb{block_id}[s{step},d{device}]",
                        kind=TaskKind.STUDENT_BACKWARD,
                        resource=device_compute(device),
                        duration=student_bwd_time,
                        deps=(student_fwd,),
                        step=step,
                        device=device,
                        block=block_id,
                    )
                    backward_ids.append(student_bwd)
                    per_device_bwd[device] = student_bwd

                allreduce_id = engine.add_task(
                    name=f"allreduce[b{block_id},s{step}]",
                    kind=TaskKind.ALLREDUCE,
                    resource=collective("dp"),
                    duration=allreduce_time,
                    deps=tuple(backward_ids),
                    step=step,
                    device=-1,
                    block=block_id,
                )
                step_updates: List[int] = []
                for device in range(plan.num_devices):
                    update_id = engine.add_task(
                        name=f"U{block_id}[s{step},d{device}]",
                        kind=TaskKind.WEIGHT_UPDATE,
                        resource=device_compute(device),
                        duration=update_time,
                        deps=(per_device_bwd[device], allreduce_id),
                        step=step,
                        device=device,
                        block=block_id,
                    )
                    step_updates.append(update_id)
                previous_step_updates = step_updates

            trace = engine.run()
            last_trace = trace
            block_step_time = trace.steady_state_step_time(skip_first=WARMUP_STEPS)
            per_block_step_times.append(block_step_time)
            epoch_time += block_step_time * steps_per_epoch
            block_breakdown = self._scaled_breakdown(
                trace, block_step_time * steps_per_epoch, steps_per_epoch, steps
            )
            for device in range(plan.num_devices):
                for category in BREAKDOWN_CATEGORIES:
                    accumulated[device][category] += block_breakdown[device][category]

        total_step_time = sum(per_block_step_times)
        memory = self._data_parallel_memory(plan)
        return ExecutionResult(
            plan=plan,
            epoch_time=epoch_time,
            step_time=total_step_time,
            steps_per_epoch=steps_per_epoch,
            breakdown=accumulated,
            peak_memory_bytes=memory,
            trace=last_trace,
            metadata={
                "simulated_steps_per_block": steps,
                "per_block_step_times": tuple(per_block_step_times),
            },
        )

    # ------------------------------------------------------------------ #
    # Breakdown and memory helpers
    # ------------------------------------------------------------------ #
    def _scaled_breakdown(
        self,
        trace: Trace,
        epoch_time: float,
        steps_per_epoch: int,
        simulated_steps: int,
    ) -> Dict[int, Dict[str, float]]:
        """Scale a simulated-window breakdown to one epoch."""
        raw = compute_breakdown(trace, self.server.num_devices)
        scale = steps_per_epoch / float(simulated_steps)
        scaled: Dict[int, Dict[str, float]] = {}
        for device, categories in raw.items():
            scaled[device] = {}
            busy = 0.0
            for category in ("teacher_exec", "student_exec", "comm", "data_load"):
                scaled[device][category] = categories[category] * scale
                if category != "data_load":
                    busy += scaled[device][category]
            data_wait = min(scaled[device]["data_load"], max(0.0, epoch_time - busy))
            scaled[device]["data_load"] = data_wait
            scaled[device]["idle"] = max(0.0, epoch_time - busy - data_wait)
        return scaled

    def _pipeline_memory(self, plan: SchedulePlan) -> Dict[int, float]:
        memory_model = self.server.memory_model
        result: Dict[int, float] = {}
        for stage in plan.stages:
            micro_batch = stage.per_device_batch(plan.batch_size)
            teacher_blocks = [self.pair.teacher.block(block_id) for block_id in stage.block_ids]
            student_blocks = [self.pair.student.block(block_id) for block_id in stage.block_ids]
            for device in stage.device_ids:
                result[device] = memory_model.device_peak_bytes(
                    teacher_blocks=teacher_blocks,
                    student_blocks=student_blocks,
                    batch=micro_batch,
                )
        for device in range(plan.num_devices):
            result.setdefault(device, memory_model.framework_baseline_bytes)
        return result

    def _layerwise_memory(self, plan: SchedulePlan) -> Dict[int, float]:
        assert plan.device_blocks is not None
        memory_model = self.server.memory_model
        result: Dict[int, float] = {}
        for device, block_ids in plan.device_blocks.items():
            max_block = max(block_ids)
            executed_teacher = [self.pair.teacher.block(i) for i in range(max_block + 1)]
            student_blocks = [self.pair.student.block(block_id) for block_id in block_ids]
            result[device] = memory_model.device_peak_bytes(
                teacher_blocks=executed_teacher,
                student_blocks=student_blocks,
                batch=plan.batch_size,
                resident_teacher_blocks=executed_teacher,
            )
        for device in range(plan.num_devices):
            result.setdefault(device, memory_model.framework_baseline_bytes)
        return result

    def _data_parallel_memory(self, plan: SchedulePlan) -> Dict[int, float]:
        memory_model = self.server.memory_model
        micro_batch = max(1, plan.batch_size // plan.num_devices)
        peak = 0.0
        for block_id in range(plan.num_blocks):
            executed_teacher = [self.pair.teacher.block(i) for i in range(block_id + 1)]
            student_blocks = [self.pair.student.block(block_id)]
            peak = max(
                peak,
                memory_model.device_peak_bytes(
                    teacher_blocks=executed_teacher,
                    student_blocks=student_blocks,
                    batch=micro_batch,
                    resident_teacher_blocks=executed_teacher,
                ),
            )
        return {device: peak for device in range(plan.num_devices)}
