"""Layout-based time accounting against the per-row scans it replaced.

A trace's :class:`~repro.sim.trace.AccountingLayout` lists the rows of each
step and of each ``(device, category)``; a template run instead hands its
trace each bucket's busy time, added as it ran, and each step label's rows.
``compute_breakdown``, ``step_boundaries``, ``steady_state_step_time``,
``steps()`` and ``for_step`` all read one or the other.  The oracle below is
those functions as they were before, copied verbatim but for their float
sums, left folds as in ``src``: one pass over every row of the trace per
call.  Both must agree exactly (``==``) on random graphs, on template runs
of several steps and on sub-traces.  Exact
equality also pins the summation order: the busy times are added with
``+=`` in row order, which ``sum()`` (compensated from Python 3.12 on) would
not reproduce.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.fold import left_sum
from repro.sim.engine import SimulationEngine
from repro.sim.events import STUDENT_EXEC_KINDS, TaskKind
from repro.sim.metrics import BREAKDOWN_CATEGORIES, compute_breakdown
from repro.sim.resources import parse_device
from repro.sim.trace import Trace, accounting_layout


# --------------------------------------------------------------------- #
# Oracle: the per-row scans, kept verbatim
# --------------------------------------------------------------------- #
_KIND_CATEGORY: Dict[TaskKind, str] = {
    TaskKind.TEACHER_FORWARD: "teacher_exec",
    **{kind: "student_exec" for kind in STUDENT_EXEC_KINDS | {TaskKind.VALIDATE}},
    **{
        kind: "comm"
        for kind in (TaskKind.SEND, TaskKind.RECV, TaskKind.ALLREDUCE, TaskKind.BARRIER)
    },
}


def _compute_device(resource: str) -> Optional[int]:
    """The device of a compute-stream resource, or ``None`` for any other."""
    try:
        return parse_device(resource)
    except (SimulationError, ValueError):
        return None


def oracle_breakdown(
    trace: Trace, num_devices: int, horizon: float | None = None
) -> Dict[int, Dict[str, float]]:
    if horizon is None:
        horizon = trace.makespan
    breakdown: Dict[int, Dict[str, float]] = {
        device: {category: 0.0 for category in BREAKDOWN_CATEGORIES}
        for device in range(num_devices)
    }

    tasks = trace.tasks
    kinds, resources, devices = tasks.kinds, tasks.resources, tasks.devices
    # Device of each distinct resource, resolved once per call; ``None``
    # marks a non-compute resource, whose time goes to the task's device.
    resource_devices: Dict[str, Optional[int]] = {}
    for task_id, start, end in trace.rows():
        device = devices[task_id]
        kind = kinds[task_id]
        if kind == TaskKind.DATA_LOAD:
            if 0 <= device < num_devices:
                breakdown[device]["data_load"] += end - start
            continue
        resource = resources[task_id]
        if resource in resource_devices:
            resource_device = resource_devices[resource]
        else:
            resource_device = resource_devices[resource] = _compute_device(resource)
        if resource_device is None:
            resource_device = device
        if resource_device < 0 or resource_device >= num_devices:
            continue
        category = _KIND_CATEGORY.get(kind)
        if category is not None:
            breakdown[resource_device][category] += end - start

    for device in range(num_devices):
        busy = left_sum(
            breakdown[device][category]
            for category in ("teacher_exec", "student_exec", "comm")
        )
        # Data loading overlaps with compute on a different resource, but when
        # the device is waiting for data it is idle on its compute stream.
        idle = max(0.0, horizon - busy)
        # Attribute the part of idle that is caused by data loading to the
        # data_load category, the rest stays idle.
        data_wait = min(idle, breakdown[device]["data_load"])
        breakdown[device]["data_load"] = data_wait
        breakdown[device]["idle"] = idle - data_wait
    return breakdown


def oracle_for_step(self: Trace, step: int) -> Trace:
    """Records belonging to one training step."""
    steps = self.tasks.steps
    return self._subset(
        p for p, task_id in enumerate(self.task_ids) if steps[task_id] == step
    )


def oracle_steps(self: Trace) -> Tuple[int, ...]:
    """Sorted step labels present in the trace (excluding unlabeled -1)."""
    steps = self.tasks.steps
    return tuple(sorted({steps[i] for i in self.task_ids if steps[i] >= 0}))


def oracle_step_boundaries(self: Trace) -> Dict[int, Tuple[float, float]]:
    """Per-step (earliest start, latest end) over labeled records."""
    steps = self.tasks.steps
    first: Dict[int, float] = {}
    last: Dict[int, float] = {}
    for task_id, start, end in self.rows():
        step = steps[task_id]
        if step < 0:
            continue
        if step in first:
            if start < first[step]:
                first[step] = start
            if end > last[step]:
                last[step] = end
        else:
            first[step] = start
            last[step] = end
    return {step: (first[step], last[step]) for step in first}


def oracle_steady_state_step_time(self: Trace, skip_first: int = 1) -> float:
    if skip_first < 0:
        raise ValueError(f"skip_first must be non-negative, got {skip_first}")
    bounds = oracle_step_boundaries(self)
    steps = sorted(bounds)
    if not steps:
        return 0.0
    if skip_first == 0 or len(steps) <= skip_first + 1:
        span = bounds[steps[-1]][1] - bounds[steps[0]][0]
        return span / len(steps)
    span = bounds[steps[-1]][1] - bounds[steps[skip_first - 1]][1]
    return span / (len(steps) - skip_first)


# --------------------------------------------------------------------- #
# Random graphs
# --------------------------------------------------------------------- #
#: Compute streams in and out of the device range, a negative and a
#: malformed one, links, collectives and the host loader.
RESOURCES = (
    "gpu0:compute",
    "gpu1:compute",
    "gpu2:compute",
    "gpu5:compute",
    "gpu-1:compute",
    "gpuX:compute",
    "link:0->1",
    "link:1->0",
    "link:2->6",
    "collective:dp",
    "collective:stage1",
    "host:loader",
)
#: Step labels with gaps, and ``-1`` for unlabelled rows.
STEPS = (-1, 0, 1, 2, 4, 7)
#: Durations whose running sums round: ``0.1 + 0.2 + 0.3`` is not ``0.6``.
DURATIONS = st.one_of(
    st.sampled_from((0.0, 0.1, 0.2, 0.3, 1e-9, 1e9 / 3)),
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def graphs(draw):
    """``(num_devices, rows)``, each row the arguments of one ``add_task``."""
    num_devices = draw(st.integers(1, 4))
    rows = []
    for row in range(draw(st.integers(0, 28))):
        deps = draw(st.sets(st.integers(0, row - 1), max_size=3)) if row else set()
        rows.append(
            dict(
                name=f"t{row}",
                kind=draw(st.sampled_from(list(TaskKind))),
                resource=draw(st.sampled_from(RESOURCES)),
                duration=draw(DURATIONS),
                deps=tuple(sorted(deps)),
                step=draw(st.sampled_from(STEPS)),
                device=draw(st.integers(-1, 6)),
            )
        )
    return num_devices, rows


def build(rows, slots: bool = False) -> SimulationEngine:
    """An engine of ``rows``; with ``slots``, row ``i`` lasts slot ``i``."""
    engine = SimulationEngine()
    for index, row in enumerate(rows):
        engine.add_task(**{**row, "duration": index if slots else row["duration"]})
    return engine


def rows_of(trace: Trace):
    return list(trace.rows())


def assert_accounting_matches(trace: Trace, num_devices: int, horizon, window) -> None:
    """The layout-based accounting equals the scans on ``trace`` and its sub-traces."""
    start, end = window
    labelled = trace.filter(lambda record: record.task.step >= 0)
    comms = trace.filter(lambda record: record.kind in (TaskKind.RECV, TaskKind.ALLREDUCE))
    subtraces = [labelled, comms, trace.window(start, end)]
    subtraces += [trace.for_step(step) for step in STEPS]
    for view in [trace] + subtraces:
        assert view.layout == accounting_layout(view.tasks, view.task_ids)
        assert compute_breakdown(view, num_devices) == oracle_breakdown(view, num_devices)
        assert compute_breakdown(view, num_devices, horizon) == oracle_breakdown(
            view, num_devices, horizon
        )
        assert view.step_boundaries() == oracle_step_boundaries(view)
        assert view.steps() == oracle_steps(view)
        for skip_first in range(5):
            assert view.steady_state_step_time(skip_first) == oracle_steady_state_step_time(
                view, skip_first
            )
        for step in STEPS + (3, 9):
            assert rows_of(view.for_step(step)) == rows_of(oracle_for_step(view, step))


@given(
    graph=graphs(),
    horizon=st.one_of(st.none(), st.floats(0.0, 5e3, allow_nan=False)),
    steps=st.integers(1, 3),
    window=st.tuples(st.floats(0.0, 2e3), st.floats(0.0, 4e3)),
)
@settings(max_examples=150, deadline=None)
def test_layout_accounting_matches_the_row_scan(graph, horizon, steps, window):
    num_devices, rows = graph
    assert_accounting_matches(build(rows).run(), num_devices, horizon, window)

    # A template run of its block for several steps hands its trace the
    # bucket totals it added as it ran and each step label's rows: they
    # must account exactly like a scan of the run's rows.
    template = build(rows, slots=True).freeze()
    values = [row["duration"] for row in rows]
    trace = template.instantiate(values, steps).run()
    assert_accounting_matches(trace, num_devices, horizon, window)
    repeated = [
        {
            **row,
            "deps": tuple(step * len(rows) + dep for dep in row["deps"]),
            "step": row["step"] + step,
        }
        for step in range(steps)
        for row in rows
    ]
    assert rows_of(trace) == rows_of(build(repeated).run())


def test_busy_time_adds_in_row_order():
    # Device 1 receives on three links at once, for 0.1, 0.2 and 0.3 s.
    # Adding them in row order gives 0.6000000000000001; a compensated sum
    # (``sum()`` from Python 3.12 on, or ``math.fsum``) would give 0.6.
    rows = [
        dict(name=f"recv{source}", kind=TaskKind.RECV, resource=f"link:{source}->1", device=1)
        for source in (0, 2, 3)
    ]
    durations = [0.1, 0.2, 0.3]
    expected = (0.1 + 0.2) + 0.3
    assert expected != 0.6
    built = build([{**row, "duration": value} for row, value in zip(rows, durations)])
    template = build(rows, slots=True).freeze()
    for trace in (built.run(), template.instantiate(durations).run()):
        assert compute_breakdown(trace, num_devices=2)[1]["comm"] == expected
