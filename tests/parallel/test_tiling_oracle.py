"""Tiled graph templates against the step-loop builders and freeze they replaced.

A :class:`GraphTemplates` table builds one step of each plan shape (a
:class:`~repro.sim.engine.StepBlock`) and tiles it once per step.  Before
that, each builder added every step in a ``for step in range(steps)`` loop,
one ``_GraphBuilder.add`` call per row, and ``SimulationEngine.freeze``
checked the whole graph and made its columns, run structure, accounting
layout and in-order flag row by row.  The oracle below is those three
builders, copied verbatim, with that freeze (:func:`frozen_columns`).  For
every plan shape of the benchmark's plan-cold grid (``shuffled_grid(0)`` and
``shuffled_grid(1)`` are the same cells in two orders, so they have the same
56 shapes) and every step count from 2 to 25, the tiled template must equal
the oracle's column for column.
"""

from __future__ import annotations

import importlib.util
import sys
from array import array
from itertools import accumulate, chain
from pathlib import Path
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import pytest

from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.errors import SimulationError
from repro.fold import left_sum
from repro.parallel.executor import GraphTemplates
from repro.sim.engine import SimulationEngine, _runs_in_id_order, _Structure
from repro.sim.events import TaskKind
from repro.sim.resources import collective, device_compute, device_link, host_loader
from repro.sim.trace import accounting_layout

ROOT = Path(__file__).resolve().parents[2]
STEP_COUNTS = range(2, 26)


# --------------------------------------------------------------------- #
# Oracle: the step-loop builders (verbatim) and the per-row freeze
# --------------------------------------------------------------------- #
class _GraphBuilder:
    """Adds tasks whose durations are slots, numbered in order of first use.

    Rows go straight into the columns of ``engine``; :func:`frozen_columns`
    freezes them.
    """

    def __init__(self) -> None:
        self.engine = SimulationEngine()
        self.slots: Dict[Hashable, int] = {}

    def add(
        self,
        slot_key: Hashable,
        name: str,
        kind: TaskKind,
        resource: str,
        deps: Tuple[int, ...],
        step: int,
        device: int,
        block: int = -1,
    ) -> int:
        engine = self.engine
        task_id = len(engine.names)
        engine.names.append(name)
        engine.kinds.append(kind)
        engine.resources.append(resource)
        engine.durations.append(self.slots.setdefault(slot_key, len(self.slots)))
        engine.deps.append(deps)
        engine.steps.append(step)
        engine.devices.append(device)
        engine.blocks.append(block)
        engine.metadata.append(None)
        return task_id


def _pipeline_graph(key: Hashable, steps: int, graph: _GraphBuilder) -> None:
    """Pipeline task graph of ``steps`` steps; slots are ``(stage_id, duration name)``."""
    _, decoupled_update, stages = key
    previous_step_updates: List[int] = []

    for step in range(steps):
        step_updates: List[int] = []
        teacher_task_ids: Dict[int, List[int]] = {}
        for stage_id, device_ids, first_block, has_allreduce in stages:
            backward_ids: List[int] = []
            pre_update_ids: Dict[int, int] = {}
            for replica_index, device in enumerate(device_ids):
                barrier_deps = tuple(previous_step_updates) if not decoupled_update else ()

                # --- input: data load (stage 0) or activation receive --- #
                if stage_id == 0:
                    input_dep = graph.add(
                        (stage_id, "load"),
                        name=f"load[s{step},d{device}]",
                        kind=TaskKind.DATA_LOAD,
                        resource=host_loader(),
                        deps=(),
                        step=step,
                        device=device,
                    )
                else:
                    previous_devices = stages[stage_id - 1][1]
                    source_device = previous_devices[replica_index % len(previous_devices)]
                    input_dep = graph.add(
                        (stage_id, "recv"),
                        name=f"recv[s{step},d{device}]",
                        kind=TaskKind.RECV,
                        resource=device_link(source_device, device),
                        deps=tuple(teacher_task_ids[stage_id - 1]),
                        step=step,
                        device=device,
                    )

                # --- teacher forward --- #
                teacher_id = graph.add(
                    (stage_id, "teacher"),
                    name=f"T[s{step},d{device}]",
                    kind=TaskKind.TEACHER_FORWARD,
                    resource=device_compute(device),
                    deps=(input_dep,) + barrier_deps,
                    step=step,
                    device=device,
                    block=first_block,
                )
                teacher_task_ids.setdefault(stage_id, []).append(teacher_id)

                # --- student forward / backward --- #
                student_fwd = graph.add(
                    (stage_id, "student_fwd"),
                    name=f"Sf[s{step},d{device}]",
                    kind=TaskKind.STUDENT_FORWARD,
                    resource=device_compute(device),
                    deps=(teacher_id,),
                    step=step,
                    device=device,
                    block=first_block,
                )
                student_bwd = graph.add(
                    (stage_id, "student_bwd"),
                    name=f"Sb[s{step},d{device}]",
                    kind=TaskKind.STUDENT_BACKWARD,
                    resource=device_compute(device),
                    deps=(student_fwd,),
                    step=step,
                    device=device,
                    block=first_block,
                )
                backward_ids.append(student_bwd)
                pre_update_ids[device] = student_bwd

            # --- gradient sharing within a replicated stage --- #
            allreduce_id: Optional[int] = None
            if has_allreduce:
                # The collective runs on its own (NCCL) stream and largely
                # overlaps with compute, so it is not attributed to any
                # device's busy-time breakdown (device=-1).
                allreduce_id = graph.add(
                    (stage_id, "allreduce"),
                    name=f"allreduce[s{step},stage{stage_id}]",
                    kind=TaskKind.ALLREDUCE,
                    resource=collective(f"stage{stage_id}"),
                    deps=tuple(backward_ids),
                    step=step,
                    device=-1,
                )

            # --- weight updates --- #
            for device in device_ids:
                update_deps = [pre_update_ids[device]]
                if allreduce_id is not None:
                    update_deps.append(allreduce_id)
                update_id = graph.add(
                    (stage_id, "update"),
                    name=f"U[s{step},d{device}]",
                    kind=TaskKind.WEIGHT_UPDATE,
                    resource=device_compute(device),
                    deps=tuple(update_deps),
                    step=step,
                    device=device,
                    block=first_block,
                )
                step_updates.append(update_id)
        previous_step_updates = step_updates


def _layerwise_graph(key: Hashable, steps: int, graph: _GraphBuilder) -> None:
    """LS task graph of ``steps`` steps; slots are ``(duration name, block)``."""
    _, device_blocks = key
    for step in range(steps):
        for device, block_ids in device_blocks:
            max_block = max(block_ids)
            load_id = graph.add(
                ("load", -1),
                name=f"load[s{step},d{device}]",
                kind=TaskKind.DATA_LOAD,
                resource=host_loader(),
                deps=(),
                step=step,
                device=device,
            )
            previous = graph.add(
                ("teacher", max_block),
                name=f"T0..{max_block}[s{step},d{device}]",
                kind=TaskKind.TEACHER_FORWARD,
                resource=device_compute(device),
                deps=(load_id,),
                step=step,
                device=device,
                block=max_block,
            )
            for block_id in block_ids:
                student_fwd = graph.add(
                    ("student_fwd", block_id),
                    name=f"Sf{block_id}[s{step},d{device}]",
                    kind=TaskKind.STUDENT_FORWARD,
                    resource=device_compute(device),
                    deps=(previous,),
                    step=step,
                    device=device,
                    block=block_id,
                )
                student_bwd = graph.add(
                    ("student_bwd", block_id),
                    name=f"Sb{block_id}[s{step},d{device}]",
                    kind=TaskKind.STUDENT_BACKWARD,
                    resource=device_compute(device),
                    deps=(student_fwd,),
                    step=step,
                    device=device,
                    block=block_id,
                )
                previous = graph.add(
                    ("update", block_id),
                    name=f"U{block_id}[s{step},d{device}]",
                    kind=TaskKind.WEIGHT_UPDATE,
                    resource=device_compute(device),
                    deps=(student_bwd,),
                    step=step,
                    device=device,
                    block=block_id,
                )


def _data_parallel_graph(key: Hashable, steps: int, graph: _GraphBuilder) -> None:
    """One DP block's task graph of ``steps`` steps; slots are duration names."""
    _, num_devices, block_id = key
    previous_step_updates: List[int] = []
    for step in range(steps):
        backward_ids: List[int] = []
        for device in range(num_devices):
            load_id = graph.add(
                "load",
                name=f"load[b{block_id},s{step},d{device}]",
                kind=TaskKind.DATA_LOAD,
                resource=host_loader(),
                deps=(),
                step=step,
                device=device,
                block=block_id,
            )
            teacher_id = graph.add(
                "teacher",
                name=f"T0..{block_id}[s{step},d{device}]",
                kind=TaskKind.TEACHER_FORWARD,
                resource=device_compute(device),
                deps=(load_id,) + tuple(previous_step_updates),
                step=step,
                device=device,
                block=block_id,
            )
            student_fwd = graph.add(
                "student_fwd",
                name=f"Sf{block_id}[s{step},d{device}]",
                kind=TaskKind.STUDENT_FORWARD,
                resource=device_compute(device),
                deps=(teacher_id,),
                step=step,
                device=device,
                block=block_id,
            )
            backward_ids.append(
                graph.add(
                    "student_bwd",
                    name=f"Sb{block_id}[s{step},d{device}]",
                    kind=TaskKind.STUDENT_BACKWARD,
                    resource=device_compute(device),
                    deps=(student_fwd,),
                    step=step,
                    device=device,
                    block=block_id,
                )
            )

        allreduce_id = graph.add(
            "allreduce",
            name=f"allreduce[b{block_id},s{step}]",
            kind=TaskKind.ALLREDUCE,
            resource=collective("dp"),
            deps=tuple(backward_ids),
            step=step,
            device=-1,
            block=block_id,
        )
        previous_step_updates = [
            graph.add(
                "update",
                name=f"U{block_id}[s{step},d{device}]",
                kind=TaskKind.WEIGHT_UPDATE,
                resource=device_compute(device),
                deps=(backward_ids[device], allreduce_id),
                step=step,
                device=device,
                block=block_id,
            )
            for device in range(num_devices)
        ]


#: Each plan kind's graph builder: adds a key's rows for a step count.
_GRAPH_BUILDERS: Dict[str, Callable[[Hashable, int, _GraphBuilder], None]] = {
    "pipeline": _pipeline_graph,
    "layerwise": _layerwise_graph,
    "data_parallel": _data_parallel_graph,
}


def _run_structure(deps: Sequence, resources: Sequence) -> _Structure:
    """The run structure of the rows ``deps`` / ``resources``."""
    dep_counts = list(map(len, deps))
    # Each value's int object is made once and shared by the offsets and
    # the dependents, which templates keep for as long as their table lives.
    ints = list(range(max(left_sum(dep_counts), len(deps)) + 1))
    dependents: List[List[int]] = [[] for _ in deps]
    for task_id, row in zip(ints, deps):
        for dep in row:
            dependents[dep].append(task_id)
    resource_index: Dict[str, int] = {}
    resource_ids = [
        resource_index.setdefault(resource, len(resource_index)) for resource in resources
    ]
    return _Structure(
        dep_counts,
        [ints[end] for end in accumulate(map(len, dependents), initial=0)],
        list(chain.from_iterable(dependents)),
        resource_ids,
        resource_index,
    )


def frozen_columns(graph: _GraphBuilder) -> dict:
    """What the per-row freeze made of ``graph``'s rows, by template column."""
    engine = graph.engine
    intern = sys.intern
    names = tuple(map(intern, engine.names))
    first_use: Dict[int, str] = {}
    for row, (name, slot, deps) in enumerate(zip(names, engine.durations, engine.deps)):
        if int(slot) != slot:
            raise SimulationError(
                f"task {name!r} has duration {slot!r}: template durations "
                f"must be integer slot indices"
            )
        first_use.setdefault(slot, name)
        for dep in deps:
            if dep < 0 or dep >= row:
                raise SimulationError(f"task {name!r} depends on unknown task id {dep}")
    slot_range = range(len(first_use))
    assert sorted(first_use) == list(slot_range)
    dep_offsets = array("i", accumulate(map(len, engine.deps), initial=0))
    dep_targets = array("i", chain.from_iterable(engine.deps))
    resources = tuple(map(intern, engine.resources))
    structure = _run_structure(engine.deps, resources)
    return {
        "names": names,
        "kinds": tuple(engine.kinds),
        "resources": resources,
        "metadata": tuple(engine.metadata),
        "slot_names": tuple(map(first_use.__getitem__, slot_range)),
        "slots": array("i", map(int, engine.durations)),
        "steps": array("i", engine.steps),
        "devices": array("i", engine.devices),
        "blocks": array("i", engine.blocks),
        "dep_offsets": dep_offsets,
        "dep_targets": dep_targets,
        "structure": structure,
        "layout": accounting_layout(engine, range(len(names))),
        "in_order": _runs_in_id_order(structure, dep_offsets, dep_targets, len(names)),
    }


COLUMNS = (
    "names",
    "kinds",
    "resources",
    "metadata",
    "slot_names",
    "slots",
    "steps",
    "devices",
    "blocks",
    "dep_offsets",
    "dep_targets",
    "structure",
    "layout",
    "in_order",
)


def oracle(key: Hashable, steps: int) -> Tuple[dict, Tuple[Hashable, ...]]:
    """The oracle's template columns and slot keys for ``steps`` steps of ``key``."""
    graph = _GraphBuilder()
    _GRAPH_BUILDERS[key[0]](key, steps, graph)
    return frozen_columns(graph), tuple(graph.slots)


def perfbench_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def grid_keys():
    """Every plan shape of the plan-cold grid, as the session's table holds them."""
    session = Session()
    config = None
    for body in perfbench_inputs().plan_grid():
        fields = dict(body)
        config = ExperimentConfig(simulated_steps=fields.pop("steps"), **fields)
        session.run(config)
    keys = list(session.executor(config).templates.shapes())
    assert len(keys) == 56
    return keys


# --------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------- #
def test_tiled_templates_equal_the_step_loop_builds(grid_keys):
    # Each table tiles the key's block again for every longer step count.
    # The oracle checks every row for the in-order flag; a template checks
    # its first three steps.
    for key in grid_keys:
        table = GraphTemplates()
        for steps in STEP_COUNTS:
            entry, rows = table.get(key, steps)
            columns, slot_keys = oracle(key, steps)
            tiled = {name: getattr(entry.template, name) for name in COLUMNS}
            assert tiled == columns, (key, steps)
            assert (entry.slot_keys, rows) == (slot_keys, len(columns["names"]))
        assert (table.builds, table.tilings) == (1, len(STEP_COUNTS))


def test_the_block_edges_give_the_tiled_dependencies(grid_keys):
    # Row i of step k depends on the block's lag-0 targets t (row k * R + t)
    # and, from step 1 on, its lag-1 targets t < 0 (row k * R + t, in step
    # k - 1), in the block's order.
    lagged = set()
    for key in grid_keys:
        entry, _ = GraphTemplates().get(key, 5)
        template, block = entry.template, entry.template.block
        stride = len(block.slots)
        edges = [
            block.dep_targets[begin:end]
            for begin, end in zip(block.dep_offsets, block.dep_offsets[1:])
        ]
        expected = [
            tuple(step * stride + dep for dep in row if dep >= 0 or step)
            for step in range(5)
            for row in edges
        ]
        engine = template.instantiate([1.0] * len(template.slot_names))
        assert [tuple(row) for row in engine.deps] == expected, key
        assert template.structure == _run_structure(expected, template.resources), key
        if any(dep < 0 for dep in block.dep_targets):
            lagged.add(key)
    # Non-decoupled pipelines and every DP block carry the previous step's updates.
    assert lagged == {
        key for key in grid_keys if key[0] == "data_parallel" or key[:2] == ("pipeline", False)
    }
