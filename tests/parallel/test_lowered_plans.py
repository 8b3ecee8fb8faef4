"""Lowered plans: a plan's step-independent execution, made once per session cell.

:meth:`ScheduleExecutor.lower` computes each phase's template key and slot
values and the plan's peak memory; :meth:`ScheduleExecutor.execute`
simulates them for the executor's step count.  A :class:`Session` keeps each lowered
plan, so the benchmark grid's three step counts of one (strategy,
cell) lower once.  A direct ``execute(plan)`` lowers afresh, and every
result equals that fresh execution, byte for byte.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.parallel.executor import LoweredPlan, ScheduleExecutor
from repro.parallel.plan import SchedulePlan

ROOT = Path(__file__).resolve().parents[2]


def shuffled_grid(seed):
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.shuffled_grid(seed)


def config_of(body):
    fields = dict(body)
    return ExperimentConfig(simulated_steps=fields.pop("steps"), **fields)


def fresh_executor(session, config):
    """An executor that shares no template table, lowering or plan with ``session``."""
    return ScheduleExecutor(
        pair=config.build_pair(),
        server=config.build_server(),
        dataset=config.build_dataset(),
        simulated_steps=config.simulated_steps,
    )


def canonical(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def test_the_plan_grid_through_one_session_equals_fresh_executes():
    # task x dataset x server x {2, 4} GPUs x 4 batches x 6 strategies x
    # steps {5, 10, 20}, in the benchmark's shuffled order.
    session = Session()
    fresh = {}
    grid = shuffled_grid(2)
    assert len(grid) == 1152
    for body in grid:
        config = config_of(body)
        result = session.run(config)
        key = (config.task, config.dataset, config.server, config.num_gpus, config.simulated_steps)
        if key not in fresh:
            fresh[key] = fresh_executor(session, config)
        assert canonical(result) == canonical(fresh[key].execute(result.plan)), body
    assert (session.stats.plan_builds, session.stats.runs) == (384, 1152)


def count_lowerings(monkeypatch):
    lowered = []
    lower = ScheduleExecutor.lower

    def counting(self, plan):
        lowered.append((plan.strategy, plan.batch_size))
        return lower(self, plan)

    monkeypatch.setattr(ScheduleExecutor, "lower", counting)
    return lowered


def test_lower_runs_once_per_strategy_and_cell_whatever_the_steps(monkeypatch):
    lowered = count_lowerings(monkeypatch)
    session = Session()
    for steps in (5, 20, 10, 5):
        for strategy in ("DP", "LS", "TR+DPU+AHD"):
            for batch_size in (128, 256):
                config = ExperimentConfig(
                    batch_size=batch_size, simulated_steps=steps, strategy=strategy
                )
                session.run(config)
    assert len(lowered) == len(set(lowered)) == 6
    assert session.stats.runs == 24
    session.clear()
    session.run(ExperimentConfig(batch_size=128, simulated_steps=10, strategy="DP"))
    assert lowered[6:] == [("DP", 128)]


def test_a_profile_override_and_a_direct_execute_lower_afresh(monkeypatch):
    lowered = count_lowerings(monkeypatch)
    session = Session()
    config = ExperimentConfig(batch_size=128, simulated_steps=6, strategy="TR+DPU+AHD")
    kept = session.run(config)
    profile = session.profile(config)
    for _ in range(2):
        assert canonical(session.run(config, profile=profile)) == canonical(kept)
        assert canonical(session.executor(config).execute(kept.plan)) == canonical(kept)
    assert len(lowered) == 5


def test_one_lowering_runs_on_the_executor_of_every_step_count():
    session = Session()
    config = ExperimentConfig(batch_size=128, simulated_steps=6, strategy="TR")
    plan = session.run(config).plan
    lowered = session.executor(config).lower(plan)
    for steps in (4, 9):
        longer = ExperimentConfig(batch_size=128, simulated_steps=steps, strategy="TR")
        executor = session.executor(longer)
        assert canonical(executor.execute(lowered)) == canonical(session.run(longer))
        assert canonical(executor.execute(lowered)) == canonical(executor.execute(plan))


def test_a_lowered_plan_holds_plain_values_only():
    session = Session()
    for strategy in ("DP", "LS", "TR+DPU+AHD"):
        config = ExperimentConfig(batch_size=256, simulated_steps=5, strategy=strategy)
        plan = session.run(config).plan
        lowered = session.executor(config).lower(plan)
        assert isinstance(lowered, LoweredPlan) and lowered.plan is plan
        assert isinstance(lowered.steps_per_epoch, int)
        assert len(lowered.peak_memory_bytes) == plan.num_devices
        assert len(lowered.keys) == (plan.num_blocks if strategy == "DP" else 1)
        table = session.executor(config).templates
        graph_kind = "pipeline" if strategy == "DP" else plan.kind
        assert all(type(key) is tuple and key[0] == graph_kind for key in lowered.keys)
        assert (lowered.values.typecode, lowered.peak_memory_bytes.typecode) == ("d", "d")
        slots = [len(table.get(key).slot_keys) for key in lowered.keys]
        assert len(lowered.values) == sum(slots)


def test_dp_devices_run_the_floor_of_the_batch_the_executor_simulates():
    # 100 over 8 GPUs: 12 per device, not 13.
    config = ExperimentConfig(num_gpus=8, batch_size=100, simulated_steps=5, strategy="DP")
    session = Session()
    result = session.run(config)
    plan: SchedulePlan = result.plan
    assert plan.per_device_batch() == {device: 12 for device in range(8)}
    executor = session.executor(config)
    lowered = executor.lower(plan)
    memory = executor.server.memory_model
    teacher, student = executor.pair.teacher, executor.pair.student
    values = iter(lowered.values)
    for block_id, key in enumerate(lowered.keys):
        entry = executor.templates.get(key)
        slots = {name: value for (_, name), value in zip(entry.slot_keys, values)}
        assert slots["load"] == executor.loader.batch_load_time(12, concurrent_loaders=1)
        assert slots["load"] != executor.loader.batch_load_time(13, concurrent_loaders=1)
        assert slots["teacher"] == executor._teacher_time(tuple(range(block_id + 1)), 12)
        assert slots["student_fwd"] == executor._student_forward_time((block_id,), 12)
    peak = max(
        memory.device_peak_bytes(
            teacher_blocks=[teacher.block(block) for block in range(block_id + 1)],
            student_blocks=[student.block(block_id)],
            batch=12,
        )
        for block_id in range(plan.num_blocks)
    )
    assert list(lowered.peak_memory_bytes) == [peak] * 8
    assert result.peak_memory_bytes == dict(enumerate(lowered.peak_memory_bytes))
