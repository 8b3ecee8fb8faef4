"""The executor's graph-template table: one template per plan shape, kept small.

The benchmark's plan-cold grid (``perfbench/inputs.plan_grid()``, 1152
``/v1/plan`` cells, 2112 simulations) has only 56 plan shapes once the step
count is left out of the key.  The table must hold exactly those, each as
one step of its graph: a naive table of list columns retained over 13 MB on
this grid and moved the benchmark's peak RSS past its bound.  Each shape's
one-step block is built once, and every step count runs it with step
offsets.  A DP block is a one-stage pipeline shape.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.errors import SimulationError
from repro.parallel.executor import DATA_PARALLEL_STEPS, GraphTemplates, _GraphBuilder
from repro.sim.engine import GraphTemplate, SimulationEngine
from repro.sim.events import TaskKind
from repro.sim.resources import collective, device_compute, host_loader

ROOT = Path(__file__).resolve().parents[2]


def perfbench_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def plan_grid():
    return perfbench_inputs().plan_grid()


def run_grid(session, grid):
    config = None
    for body in grid:
        fields = dict(body)
        config = ExperimentConfig(simulated_steps=fields.pop("steps"), **fields)
        session.run(config)
    return session.executor(config).templates


def test_the_seed0_plan_cold_grid_holds_one_template_per_shape():
    # The benchmark's shuffled order asks for 5, 10 and 20 steps of a shape
    # in any order.  Each shape's block is built once and serves them all,
    # so the 56 shapes take 56 builds and hold one step's rows each.
    session = Session()
    table = run_grid(session, perfbench_inputs().shuffled_grid(0))
    assert (len(table), table.builds) == (56, 56)
    assert table.num_tasks == 1_093
    stats = session.stats
    assert (stats.plan_builds, stats.plan_hits, stats.runs) == (384, 768, 1152)
    # 46 shapes run in one pass in id order.  The other 10 are exactly the
    # decoupled-update pipelines with an all-reduce stage, where the next
    # step's teacher overtakes an update waiting on the all-reduce.
    heap_shapes = {key for key in table.shapes() if not table.get(key).template.in_order}
    assert len(heap_shapes) == 10
    assert heap_shapes == {
        key
        for key in table.shapes()
        if key[:2] == ("pipeline", True) and any(stage[3] for stage in key[2])
    }
    # The 12 DP block shapes (6 blocks on 2 and on 4 GPUs) are one-stage
    # pipelines without decoupled updates.
    dp_shapes = [
        key for key in table.shapes() if key[:2] == ("pipeline", False) and len(key[2]) == 1
    ]
    assert len(dp_shapes) == 12


@pytest.mark.parametrize("num_gpus", [1, 2, 4])
def test_dp_blocks_are_one_stage_pipeline_phases(num_gpus):
    config = ExperimentConfig(num_gpus=num_gpus, strategy="DP", simulated_steps=5)
    session = Session()
    result = session.run(config)
    lowered = session.executor(config).lower(result.plan)
    devices = tuple(range(num_gpus))
    # Every device trains block b after the teacher prefix; the all-reduce
    # flag is set at every GPU count.
    blocks = range(result.plan.num_blocks)
    assert lowered.keys == tuple(("pipeline", False, ((0, devices, b, True),)) for b in blocks)
    # The result keeps the last block's trace: each step has its all-reduce
    # row on the stage's collective, of zero length on one GPU.
    allreduces = [
        record for record in result.trace.records if record.task.kind is TaskKind.ALLREDUCE
    ]
    assert len(allreduces) == DATA_PARALLEL_STEPS
    assert {record.task.resource for record in allreduces} == {collective("stage0")}
    lengths = {record.end - record.start > 0.0 for record in allreduces}
    assert lengths == ({False} if num_gpus == 1 else {True})
    assert len(result.trace) == DATA_PARALLEL_STEPS * (5 * num_gpus + 1)


def test_a_long_run_leaves_the_table_as_it_is():
    # A 1,000-step run reads the one-step block like any other: the table
    # holds the same one step, and a short run answers as it did before.
    session = Session()
    config = ExperimentConfig(num_gpus=4, strategy="TR+DPU+AHD", simulated_steps=10)
    table = session.executor(config).templates
    first = json.dumps(session.run(config).to_dict())
    held = (table.shapes(), table.num_tasks, table.builds)
    (key,) = held[0]
    long = session.run(dataclasses.replace(config, simulated_steps=1000))
    assert len(long.trace) == 1000 * table.get(key).template.num_tasks
    assert (table.shapes(), table.num_tasks, table.builds) == held
    assert json.dumps(session.run(config).to_dict()) == first


def test_every_step_count_runs_the_one_held_entry():
    session = Session()
    for name in ("DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD"):
        for num_gpus in (2, 4):
            config = ExperimentConfig(num_gpus=num_gpus, strategy=name, simulated_steps=5)
            session.run(config)
    keys = session.executor(config).templates.shapes()
    assert {key[0] for key in keys} == {"pipeline", "layerwise"}  # DP blocks are pipelines
    for key in keys:
        table = GraphTemplates()
        entry = table.get(key)
        assert table.get(key) is entry and (table.shapes(), table.builds) == ((key,), 1)
        fresh = GraphTemplates().get(key)
        assert entry.slot_keys == fresh.slot_keys
        assert entry.template.block == fresh.template.block
        assert entry.template.structure == fresh.template.structure


def test_a_shorter_run_is_the_first_rows_of_a_longer_one_when_in_order():
    # An in-order run starts each task as soon as its resource is free and
    # its dependencies have ended, so the graph for k steps runs like the
    # first rows of the graph for more steps.
    session = Session()
    for name in ("DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD"):
        config = ExperimentConfig(num_gpus=4, strategy=name, simulated_steps=5)
        session.run(config)
    table = session.executor(config).templates
    in_order = [key for key in table.shapes() if table.get(key).template.in_order]
    assert {key[0] for key in in_order} == {"pipeline", "layerwise"}
    for key in in_order:
        entry = table.get(key)
        values = [1.0 + 0.25 * slot for slot in range(len(entry.slot_keys))]
        short = entry.template.instantiate(values, 6).run()
        long = entry.template.instantiate(values, 20).run()
        rows = len(short)
        assert rows == 6 * entry.template.num_tasks
        assert [(r.task, r.start, r.end) for r in short.records] == [
            (r.task, r.start, r.end) for r in long.records[:rows]
        ]


@pytest.mark.parametrize("strategy", ["DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD"])
def test_execute_runs_each_phase_once_through_the_engine(monkeypatch, strategy):
    # perfbench's ``sim`` layer wraps SimulationEngine.run and counts
    # ``len(result.records)``: one run per phase, each of the phase's steps
    # times its block's rows.
    runs = []
    engine_run = SimulationEngine.run

    def counted(engine):
        trace = engine_run(engine)
        runs.append(len(trace.records))
        return trace

    config = ExperimentConfig(num_gpus=4, strategy=strategy, simulated_steps=7)
    session = Session()
    result = session.run(config)
    executor = session.executor(config)
    lowered = executor.lower(result.plan)
    monkeypatch.setattr(SimulationEngine, "run", counted)
    again = executor.execute(lowered)
    steps = DATA_PARALLEL_STEPS if strategy == "DP" else 7
    blocks = [executor.templates.get(key).template.num_tasks for key in lowered.keys]
    assert runs == [steps * rows for rows in blocks]
    assert len(again.trace.records) == runs[-1]
    assert again.to_dict() == result.to_dict()


def test_plan_grid_table_stays_within_its_memory_budget():
    session = Session()
    table = run_grid(session, plan_grid())
    assert len(table) <= 56
    assert table.num_tasks <= 1_093
    shapes = table.shapes()

    session.clear()
    assert len(table) == 0
    gc.collect()
    # Rebuild the same templates with allocation tracing on, and measure
    # what dropping the table frees again.
    tracemalloc.start()
    try:
        rebuilt = GraphTemplates()
        for key in shapes:
            rebuilt.get(key)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        rows = rebuilt.num_tasks
        rebuilt.clear()
        gc.collect()
        dropped = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows <= 1_093
    assert held - dropped <= 600_000


def test_session_shares_one_table_and_clear_empties_it():
    session = Session()
    short = ExperimentConfig(num_gpus=4, batch_size=128, simulated_steps=5, strategy="TR")
    long = ExperimentConfig(num_gpus=4, batch_size=256, simulated_steps=9, strategy="TR")
    session.run(short)
    table = session.executor(short).templates
    assert session.executor(long).templates is table
    (key,) = table.shapes()
    rows = table.num_tasks
    session.run(long)
    session.run(short.with_batch_size(64))
    assert (table.shapes(), table.num_tasks, table.builds) == ((key,), rows, 1)
    session.clear()
    assert len(table) == 0 and table.num_tasks == 0


def hand_built(deps, carried):
    """A load (row 0) and a teacher added by hand, not by a plan kind's builder."""
    graph = _GraphBuilder()
    graph.add(
        "load", name="load[s{step}]", kind=TaskKind.DATA_LOAD, resource=host_loader(),
        deps=(), device=0,
    )
    teacher = graph.add(
        "teacher", name="T[s{step}]", kind=TaskKind.TEACHER_FORWARD,
        resource=device_compute(0), deps=deps, device=0,
    )
    graph.carry([teacher], carried)
    return graph


def test_builder_rows_are_checked_when_the_block_is_made():
    graph = hand_built((0, 1), [])
    assert len(graph.rows) == 2  # appended unchecked
    with pytest.raises(SimulationError, match=r"task 'T\[s0\]' depends on unknown task id 1 "):
        graph.block()
    with pytest.raises(
        SimulationError,
        match=r"task 'T\[s0\]' depends on unknown task id 2 of the previous step",
    ):
        hand_built((0,), [2]).block()
    # A row may wait on itself one step back.
    engine = GraphTemplate(hand_built((0,), [1]).block()).instantiate([1.0, 1.0], 3)
    assert engine.names == ["load[s0]", "T[s0]", "load[s1]", "T[s1]", "load[s2]", "T[s2]"]
    assert engine.deps == [(), (0,), (), (2, 1), (), (4, 3)]
