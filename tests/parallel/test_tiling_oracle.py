"""Block runs against the step-loop builders they replaced.

A :class:`GraphTemplates` table builds one step of each plan shape (a
:class:`~repro.sim.engine.StepBlock`) and runs it for any step count with
step offsets.  Before that, each builder added every step in a ``for step in
range(steps)`` loop, one ``_GraphBuilder.add`` call per row, and the whole
graph ran row by row.  The oracle below is those builders, copied verbatim;
a DP block is a one-stage pipeline key, so the pipeline builder covers it.
For every plan shape of the benchmark's plan-cold grid (``shuffled_grid(0)``
and ``shuffled_grid(1)`` are the same cells in two orders, so they have the
same 56 shapes) and every step count from 2 to 25, the block run's records,
starts and ends must equal those of the oracle's graph run on the event
loop, and its in-order flag that of the oracle's whole graph.
"""

from __future__ import annotations

import importlib.util
from array import array
from itertools import accumulate, chain
from pathlib import Path
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import pytest

from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.parallel.executor import GraphTemplates
from repro.sim.engine import SimulationEngine, _block_structure
from repro.sim.events import TaskKind
from repro.sim.resources import collective, device_compute, device_link, host_loader

ROOT = Path(__file__).resolve().parents[2]
STEP_COUNTS = range(2, 26)


# --------------------------------------------------------------------- #
# Oracle: the step-loop builders (verbatim) and the per-row freeze
# --------------------------------------------------------------------- #
class _GraphBuilder:
    """Adds tasks whose durations are slots, numbered in order of first use.

    Rows go straight into the columns of ``engine``; :func:`oracle` runs
    them with one value per slot.
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


#: Each graph kind's builder: adds a key's rows for a step count.
_GRAPH_BUILDERS: Dict[str, Callable[[Hashable, int, _GraphBuilder], None]] = {
    "pipeline": _pipeline_graph,
    "layerwise": _layerwise_graph,
}


def oracle(key: Hashable, steps: int) -> Tuple[SimulationEngine, Tuple[Hashable, ...]]:
    """The oracle's graph of ``steps`` steps of ``key`` (durations are slots) and its slot keys."""
    graph = _GraphBuilder()
    _GRAPH_BUILDERS[key[0]](key, steps, graph)
    return graph.engine, tuple(graph.slots)


def in_order(engine: SimulationEngine) -> bool:
    """The in-order flag of every row of ``engine``'s graph, as one step of itself."""
    dep_offsets = array("i", accumulate(map(len, engine.deps), initial=0))
    dep_targets = array("i", chain.from_iterable(engine.deps))
    return _block_structure(engine, dep_offsets, dep_targets, checked_steps=1).in_order


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
def test_block_runs_equal_the_step_loop_builds(grid_keys):
    # Slot values with zeros and repeats, so that starts and ends tie.  The
    # oracle checks every row for the in-order flag, a template its first
    # three steps, which decide from three steps on.
    for key in grid_keys:
        table = GraphTemplates()
        entry = table.get(key)
        values = [0.25 * (slot * 7 % 5) for slot in range(len(entry.slot_keys))]
        for steps in STEP_COUNTS:
            engine, slot_keys = oracle(key, steps)
            assert slot_keys == entry.slot_keys, (key, steps)
            if steps >= 3:
                assert in_order(engine) == entry.template.in_order, (key, steps)
            engine.durations = [values[slot] for slot in engine.durations]
            expected = engine.run()
            trace = entry.template.instantiate(values, steps).run()
            assert list(trace.rows()) == list(expected.rows()), (key, steps)
            assert list(trace.records) == list(expected.records), (key, steps)
        assert table.builds == 1


def test_the_block_edges_give_the_step_loop_dependencies(grid_keys):
    # Row i of step k depends on the block's lag-0 targets t (row k * R + t)
    # and, from step 1 on, its lag-1 targets t < 0 (row k * R + t, in step
    # k - 1), in the block's order.
    lagged = set()
    for key in grid_keys:
        entry = GraphTemplates().get(key)
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
        engine = template.instantiate([1.0] * len(template.slot_names), 5)
        assert engine.deps == expected, key
        assert engine.deps == list(oracle(key, 5)[0].deps), key
        if any(dep < 0 for dep in block.dep_targets):
            lagged.add(key)
    # Non-decoupled pipelines, every DP block among them, carry the previous
    # step's updates.
    assert lagged == {key for key in grid_keys if key[:2] == ("pipeline", False)}
