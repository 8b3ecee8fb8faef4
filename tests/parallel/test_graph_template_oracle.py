"""Template-backed execution against the per-run graph builders it replaced.

:class:`ScheduleExecutor` builds each plan shape's task graph, keeps it
as a :class:`~repro.sim.engine.GraphTemplate` in its (usually the Session's)
:class:`GraphTemplates` table, and only fills in durations per run; a shape
run for fewer steps than it was built for runs on a row prefix.  The oracle
below is the executor with the three per-run builders it used before,
copied verbatim but for its one float sum, a left fold as in ``src``, and
the DP rows' names, collective resource and block labels, which are the
pipeline builder's now that a DP block is a one-stage pipeline: every
``execute`` builds a fresh engine with one ``add_task`` call per task.
It keeps its own ``execute`` dispatch and the three per-kind peak-memory
rules too, so it checks the executor's single phase loop and memory rule,
not itself.  Both must return the same ``to_dict()`` and the same trace,
row for row.
"""

from __future__ import annotations

import math
import sys
import threading
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import VALID_DATASETS, VALID_SERVERS, VALID_TASKS, ExperimentConfig
from repro.core.session import Session
from repro.errors import ScheduleError, SimulationError
from repro.fold import left_sum
from repro.hardware.cost_model import CostModel
from repro.parallel.executor import WARMUP_STEPS, ExecutionResult, ScheduleExecutor
from repro.parallel.plan import SchedulePlan
from repro.parallel.registry import REGISTRY
from repro.sim.engine import SimulationEngine
from repro.sim.events import TaskKind
from repro.sim.metrics import BREAKDOWN_CATEGORIES
from repro.sim.resources import collective, device_compute, device_link, host_loader
from repro.sim.trace import Trace


# --------------------------------------------------------------------- #
# Oracle: one fresh engine per execute, one add_task per task
# --------------------------------------------------------------------- #
class OracleExecutor(ScheduleExecutor):
    """The executor with its per-run graph builders (kept verbatim)."""

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
                        name=f"load[s{step},d{device}]",
                        kind=TaskKind.DATA_LOAD,
                        resource=host_loader(),
                        duration=load_time,
                        deps=(),
                        step=step,
                        device=device,
                    )
                    teacher_id = engine.add_task(
                        name=f"T[s{step},d{device}]",
                        kind=TaskKind.TEACHER_FORWARD,
                        resource=device_compute(device),
                        duration=teacher_time,
                        deps=(load_id,) + tuple(previous_step_updates),
                        step=step,
                        device=device,
                        block=block_id,
                    )
                    student_fwd = engine.add_task(
                        name=f"Sf[s{step},d{device}]",
                        kind=TaskKind.STUDENT_FORWARD,
                        resource=device_compute(device),
                        duration=student_fwd_time,
                        deps=(teacher_id,),
                        step=step,
                        device=device,
                        block=block_id,
                    )
                    student_bwd = engine.add_task(
                        name=f"Sb[s{step},d{device}]",
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
                    name=f"allreduce[s{step},stage0]",
                    kind=TaskKind.ALLREDUCE,
                    resource=collective("stage0"),
                    duration=allreduce_time,
                    deps=tuple(backward_ids),
                    step=step,
                    device=-1,
                )
                step_updates: List[int] = []
                for device in range(plan.num_devices):
                    update_id = engine.add_task(
                        name=f"U[s{step},d{device}]",
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

        total_step_time = left_sum(per_block_step_times)
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
    # Peak memory, one rule per plan kind
    # ------------------------------------------------------------------ #
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
                    ),
            )
        return {device: peak for device in range(plan.num_devices)}


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
def trace_rows(trace: Trace) -> List[tuple]:
    return [
        (
            record.task.name,
            record.task.kind,
            record.task.resource,
            record.task.deps,
            record.task.step,
            record.task.device,
            record.task.block,
            record.start,
            record.end,
        )
        for record in trace.records
    ]


def oracle_executor(session: Session, config: ExperimentConfig) -> OracleExecutor:
    return OracleExecutor(
        pair=session.pair(config),
        server=session.server(config),
        dataset=session.dataset(config),
        simulated_steps=config.simulated_steps,
    )


def assert_same(result: ExecutionResult, expected: ExecutionResult) -> None:
    assert result.to_dict() == expected.to_dict()
    assert trace_rows(result.trace) == trace_rows(expected.trace)


cells = st.fixed_dictionaries(
    {
        "task": st.sampled_from(VALID_TASKS),
        "dataset": st.sampled_from(VALID_DATASETS),
        "server": st.sampled_from(VALID_SERVERS),
        "num_gpus": st.integers(1, 8),
        "batch_size": st.integers(32, 512),
        "strategy": st.sampled_from(REGISTRY.names()),
    }
)


# --------------------------------------------------------------------- #
# Equivalence
# --------------------------------------------------------------------- #
@given(
    cell=cells,
    step_counts=st.lists(st.integers(4, 25), min_size=2, max_size=3, unique=True),
)
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_templates_match_the_per_run_build(cell, step_counts):
    # Ascending order builds, then extends, each shape's template; the
    # descending pass then reuses the longest build and runs shorter step
    # counts on a row prefix of it.
    session = Session()
    expected: Dict[int, ExecutionResult] = {}
    for steps in sorted(step_counts) + sorted(step_counts, reverse=True):
        config = ExperimentConfig(simulated_steps=steps, **cell)
        result = session.run(config)
        if steps not in expected:
            expected[steps] = oracle_executor(session, config).execute(result.plan)
        assert_same(result, expected[steps])
        assert len(result.trace) == len(expected[steps].trace)
    shapes = session.executor(config).templates.shapes()
    assert shapes and max(shapes.values()) <= max(step_counts)


def test_threads_sharing_a_session_match_inline():
    # Four threads split a sweep's cells over one session: every strategy
    # on every cell must give what a serial session gives.
    cells = [
        (
            ExperimentConfig(
                task=task, batch_size=batch, num_gpus=gpus, simulated_steps=5
            ),
            strategy,
        )
        for task in ("nas", "compression")
        for batch in (64, 256)
        for gpus in (2, 4)
        for strategy in REGISTRY.names()
    ]
    serial = Session()
    expected = [serial.run(config, strategy=strategy) for config, strategy in cells]
    shared = Session()
    results: Dict[int, ExecutionResult] = {}
    errors: List[BaseException] = []

    def worker(offset: int) -> None:
        try:
            for index in range(offset, len(cells), 4):
                config, strategy = cells[index]
                results[index] = shared.run(config, strategy=strategy)
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert sorted(results) == list(range(len(cells)))
    for index, result in results.items():
        assert_same(result, expected[index])


def test_concurrent_runs_share_one_table_without_lost_builds():
    # More threads than cores and a tiny switch interval: runs of one shape
    # at different step counts race to build, extend and read its entry.
    session = Session()
    configs = [
        ExperimentConfig(num_gpus=4, batch_size=batch, simulated_steps=steps, strategy=name)
        for steps in (4, 9, 13)
        for batch in (64, 256)
        for name in ("TR", "TR+DPU", "LS", "DP")
    ]
    expected = {
        config: oracle_executor(session, config).execute(session.run(config).plan)
        for config in configs
    }
    session.clear()
    results: Dict[ExperimentConfig, List[ExecutionResult]] = {config: [] for config in configs}
    errors: List[BaseException] = []

    def worker(offset: int) -> None:
        try:
            for config in configs[offset:] + configs[:offset]:
                results[config].append(session.run(config))
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(index * 5,)) for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for config, runs in results.items():
        assert len(runs) == len(threads)
        for result in runs:
            assert_same(result, expected[config])
    shapes = session.executor(configs[0]).templates.shapes()
    assert set(shapes.values()) == {4, 13}  # DP blocks run 4 steps, the rest 13


# --------------------------------------------------------------------- #
# Every check the per-run build made
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("strategy", ["TR", "TR+DPU+AHD", "LS", "DP"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_invalid_duration_raises_like_the_per_run_build(monkeypatch, strategy, bad):
    config = ExperimentConfig(num_gpus=4, batch_size=128, simulated_steps=6, strategy=strategy)
    session = Session()
    plan = session.run(config).plan
    forward_time = CostModel.block_forward_time

    def poisoned(self, block, batch):
        return bad if block.index == 2 else forward_time(self, block, batch)

    monkeypatch.setattr(CostModel, "block_forward_time", poisoned)
    with pytest.raises(ValueError) as expected:
        oracle_executor(session, config).execute(plan)
    standalone = ScheduleExecutor(
        pair=session.pair(config),
        server=session.server(config),
        dataset=session.dataset(config),
        simulated_steps=config.simulated_steps,
    )
    for executor in (session.executor(config), standalone):
        with pytest.raises(ValueError) as raised:
            executor.execute(plan)
        assert str(raised.value) == str(expected.value)
        assert "invalid duration" in str(raised.value)


def test_template_engines_are_read_only():
    config = ExperimentConfig(num_gpus=4, batch_size=128, simulated_steps=8, strategy="TR")
    session = Session()
    executor = session.executor(config)
    result = session.run(config)
    rows = executor.templates.num_tasks
    engine = result.trace.tasks
    with pytest.raises(SimulationError, match="read-only"):
        engine.add_task("extra", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0)
    with pytest.raises(SimulationError, match="read-only"):
        engine.add_task("extra", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0, deps=(0,))
    assert len(result.trace) == engine.num_tasks
    again = executor.execute(result.plan)
    assert executor.templates.num_tasks == rows
    assert_same(again, result)
    assert_same(again, oracle_executor(session, config).execute(result.plan))
