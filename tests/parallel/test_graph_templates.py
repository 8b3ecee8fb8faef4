"""The executor's graph-template table: one template per plan shape, kept small.

The benchmark's plan-cold grid (``perfbench/inputs.plan_grid()``, 1152
``/v1/plan`` cells, 2112 simulations) has only 56 plan shapes once the step
count is left out of the key.  The table must hold exactly those, at the
longest step count each was run for, in a compact layout: a naive table of
list columns retained over 13 MB on this grid and moved the benchmark's
peak RSS past its bound.  Each shape's one-step block is built once; a
longer step count than the held one, up to ``HELD_TEMPLATE_STEPS``, tiles
that block again and replaces the held template, a longer one still runs a
template tiled for it alone, and a shorter one runs a row prefix of the
held template.  A DP block is a one-stage pipeline shape.
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
from repro.parallel.executor import (
    DATA_PARALLEL_STEPS,
    HELD_TEMPLATE_STEPS,
    GraphTemplates,
    _GraphBuilder,
)
from repro.sim.engine import GraphTemplate
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
    # in any order.  Each shape's block is built once, and a shape asked
    # for more steps than it holds is tiled again, so the 56 shapes take 56
    # builds and 97 tilings, and the table keeps one template each.
    session = Session()
    table = run_grid(session, perfbench_inputs().shuffled_grid(0))
    assert (len(table), table.builds, table.tilings) == (56, 56, 97)
    assert table.num_tasks == 18_788
    stats = session.stats
    assert (stats.plan_builds, stats.plan_hits, stats.runs) == (384, 768, 1152)
    # 46 shapes run in one pass in id order.  The other 10 are exactly the
    # decoupled-update pipelines with an all-reduce stage, where the next
    # step's teacher overtakes an update waiting on the all-reduce.
    entries = {key: table.get(key, steps)[0] for key, steps in table.shapes().items()}
    heap_shapes = {key for key, entry in entries.items() if not entry.template.in_order}
    assert len(heap_shapes) == 10
    assert heap_shapes == {
        key
        for key in table.shapes()
        if key[:2] == ("pipeline", True) and any(stage[3] for stage in key[2])
    }
    # The 12 DP block shapes (6 blocks on 2 and on 4 GPUs) are one-stage
    # pipelines without decoupled updates, run for DP's 4 steps.
    dp_shapes = [key for key, steps in table.shapes().items() if steps == DATA_PARALLEL_STEPS]
    assert len(dp_shapes) == 12
    assert all(key[:2] == ("pipeline", False) and len(key[2]) == 1 for key in dp_shapes)


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


def test_a_run_past_the_bound_leaves_the_held_template_alone():
    # One long run tiles a template for itself: the table keeps the shape at
    # the step count it held, and a short run answers as it did before.
    session = Session()
    config = ExperimentConfig(num_gpus=4, strategy="TR+DPU+AHD", simulated_steps=10)
    table = session.executor(config).templates
    first = json.dumps(session.run(config).to_dict())
    held = (table.shapes(), table.num_tasks, table.builds, table.tilings)
    (key,) = held[0]
    long = session.run(dataclasses.replace(config, simulated_steps=1000))
    assert len(long.trace) == 1000 * len(table.entry(key, 1).template.block.slots)
    assert (table.shapes(), table.num_tasks, table.builds) == held[:3]
    assert table.tilings == held[3] + 1
    assert json.dumps(session.run(config).to_dict()) == first
    assert (table.shapes(), table.num_tasks) == held[:2]
    # Within the bound, a longer run still replaces the held template.
    session.run(dataclasses.replace(config, simulated_steps=HELD_TEMPLATE_STEPS))
    assert table.shapes() == {key: HELD_TEMPLATE_STEPS}


def template_columns(template):
    return {name: getattr(template, name) for name in GraphTemplate.__slots__}


def test_a_longer_step_count_replaces_the_held_template():
    session = Session()
    for name in ("DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD"):
        for num_gpus in (2, 4):
            config = ExperimentConfig(num_gpus=num_gpus, strategy=name, simulated_steps=5)
            session.run(config)
    keys = list(session.executor(config).templates.shapes())
    assert {key[0] for key in keys} == {"pipeline", "layerwise"}  # DP blocks are pipelines
    for key in keys:
        table = GraphTemplates()
        short, _ = table.get(key, 5)
        entry, rows = table.get(key, 20)
        expected, expected_rows = GraphTemplates().get(key, 20)
        assert entry is not short and entry.template.block is short.template.block
        assert template_columns(entry.template) == template_columns(expected.template)
        assert (entry.steps, entry.slot_keys, rows) == (20, expected.slot_keys, expected_rows)
        assert (table.shapes(), table.builds, table.tilings) == ({key: 20}, 1, 2)
        # A shorter step count is served by the held template as it is.
        held, prefix_rows = table.get(key, 10)
        assert held is entry and table.get(key, 20)[0] is entry
        assert prefix_rows * 2 == rows and (table.builds, table.tilings) == (1, 2)


def prefix_columns(template, rows):
    """The columns of ``template``'s first ``rows`` rows."""
    deps_end = template.dep_offsets[rows]
    return {
        "names": template.names[:rows],
        "kinds": template.kinds[:rows],
        "resources": template.resources[:rows],
        "metadata": template.metadata[:rows],
        "slots": template.slots[:rows],
        "steps": template.steps[:rows],
        "devices": template.devices[:rows],
        "blocks": template.blocks[:rows],
        "dep_offsets": template.dep_offsets[: rows + 1],
        "dep_targets": template.dep_targets[:deps_end],
        "layout": template.prefix_layout(rows),
    }


def test_a_shorter_step_count_runs_a_prefix_equal_to_a_fresh_build():
    # The held template serves a shorter step count only because the graph
    # for k steps is the first rows of the graph for more steps.
    session = Session()
    for name in ("DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD"):
        config = ExperimentConfig(num_gpus=4, strategy=name, simulated_steps=5)
        session.run(config)
    keys = list(session.executor(config).templates.shapes())
    assert {key[0] for key in keys} == {"pipeline", "layerwise"}  # DP blocks are pipelines
    for key in keys:
        table = GraphTemplates()
        held, _ = table.get(key, 20)
        entry, rows = table.get(key, 6)
        fresh, fresh_rows = GraphTemplates().get(key, 6)
        assert entry is held and rows == fresh_rows == fresh.template.num_tasks
        assert prefix_columns(held.template, rows) == prefix_columns(fresh.template, rows)
        assert held.slot_keys[: len(fresh.slot_keys)] == fresh.slot_keys
        values = [1.0 + 0.25 * slot for slot in range(len(held.slot_keys))]
        prefix = held.template.instantiate(values, rows).run()
        whole = fresh.template.instantiate(values[: len(fresh.slot_keys)]).run()
        assert [(r.task, r.start, r.end) for r in prefix.records] == [
            (r.task, r.start, r.end) for r in whole.records
        ]


def test_plan_grid_table_stays_within_its_memory_budget():
    session = Session()
    table = run_grid(session, plan_grid())
    assert len(table) <= 56
    assert table.num_tasks <= 18_788
    shapes = table.shapes()
    assert set(shapes.values()) <= {4, 20}  # DP blocks always run 4 steps

    session.clear()
    assert len(table) == 0
    gc.collect()
    # Rebuild the same templates (same keys, same steps) with allocation
    # tracing on, and measure what dropping the table frees again.
    tracemalloc.start()
    try:
        rebuilt = GraphTemplates()
        for key, steps in shapes.items():
            rebuilt.get(key, steps)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        rows = rebuilt.num_tasks
        rebuilt.clear()
        gc.collect()
        dropped = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows <= 18_788
    assert held - dropped <= 3_000_000


def test_session_shares_one_table_and_clear_empties_it():
    session = Session()
    short = ExperimentConfig(num_gpus=4, batch_size=128, simulated_steps=5, strategy="TR")
    long = ExperimentConfig(num_gpus=4, batch_size=256, simulated_steps=9, strategy="TR")
    session.run(short)
    table = session.executor(short).templates
    assert session.executor(long).templates is table
    (steps,) = table.shapes().values()
    assert steps == 5
    session.run(long)
    assert list(table.shapes().values()) == [9]  # rebuilt, not duplicated
    session.run(short.with_batch_size(64))
    assert list(table.shapes().values()) == [9]  # a prefix of the kept build
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
    template = GraphTemplate(hand_built((0,), [1]).block(), 3)
    assert template.names == ("load[s0]", "T[s0]", "load[s1]", "T[s1]", "load[s2]", "T[s2]")
    assert [tuple(row) for row in template.instantiate([1.0, 1.0]).deps] == [
        (), (0,), (), (2, 1), (), (4, 3)
    ]
