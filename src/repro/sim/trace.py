"""Execution traces produced by the simulation engine.

A :class:`Trace` is columnar: it keeps the engine's task table (see
:class:`~repro.sim.engine.SimulationEngine`) plus, per row, the task id and
its simulated start and end time.  :attr:`Trace.records` is a read-only
sequence view that builds :class:`TaskRecord` objects the first time one is
read.

The time accounting below (step boundaries, the steady-state step time and
:func:`~repro.sim.metrics.compute_breakdown`) reads which rows each step and
each ``(device, category)`` covers: a trace's :class:`AccountingLayout`,
built with :func:`accounting_layout` on first use.  A run of a step block
hands its trace each step's rows and each bucket's busy time instead
(:meth:`~repro.sim.engine.SimulationEngine.run`), so the accounting of a
run reads no layout.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.errors import SimulationError
from repro.sim.events import STUDENT_EXEC_KINDS, SimTask, TaskKind
from repro.sim.resources import parse_device

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import SimulationEngine


#: Busy-time category of every kind that occupies a device (data loading is
#: handled separately; unlisted kinds are not counted).
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


class AccountingLayout(NamedTuple):
    """The rows each step and each ``(device, category)`` of a trace covers.

    ``steps`` holds ``(step, rows)`` for every step label, by ascending
    step (a label below zero marks unlabelled rows); ``buckets`` holds
    ``(device, category, rows)`` for every device ``>= 0`` and busy
    category, by device and then category name.  Rows are trace positions,
    ascending, in ``array('i')``; no group is empty.  See
    :func:`accounting_layout` for the category rules.
    """

    steps: Tuple[Tuple[int, array], ...]
    buckets: Tuple[Tuple[int, str, array], ...]


def accounting_layout(table, task_ids: Iterable[int]) -> AccountingLayout:
    """The accounting layout of the rows ``task_ids`` of a task table.

    ``table`` has the ``kinds``, ``resources``, ``steps`` and ``devices``
    columns of a :class:`~repro.sim.engine.SimulationEngine`; row ``p``
    of the layout is ``task_ids[p]``.  A row counts towards
    its step label, and towards one busy category of one device:

    * ``DATA_LOAD`` rows count as ``data_load`` of the task's ``device``
      (the loader blocks the training process that consumes the batch);
    * any other kind counts under its category (teacher execution, student
      execution including updates and validation, or communication) on the
      device of its compute-stream resource, or, on any other resource
      (links, collectives, the host), on the task's ``device``; kinds
      without a category are not counted;
    * rows whose device is negative are not counted.
    """
    kinds, resources = table.kinds, table.resources
    steps, devices = table.steps, table.devices
    step_rows: Dict[int, array] = {}
    bucket_rows: Dict[Tuple[int, str], array] = {}
    # Device of each distinct resource, resolved once; ``None`` marks a
    # non-compute resource, whose time goes to the task's device.
    resource_devices: Dict[str, Optional[int]] = {}
    for position, task_id in enumerate(task_ids):
        step = steps[task_id]
        rows = step_rows.get(step)
        if rows is None:
            rows = step_rows[step] = array("i")
        rows.append(position)
        kind = kinds[task_id]
        if kind == TaskKind.DATA_LOAD:
            device, category = devices[task_id], "data_load"
        else:
            category = _KIND_CATEGORY.get(kind)
            if category is None:
                continue
            resource = resources[task_id]
            if resource in resource_devices:
                device = resource_devices[resource]
            else:
                device = resource_devices[resource] = _compute_device(resource)
            if device is None:
                device = devices[task_id]
        if device < 0:
            continue
        rows = bucket_rows.get((device, category))
        if rows is None:
            rows = bucket_rows[device, category] = array("i")
        rows.append(position)
    return AccountingLayout(
        tuple(sorted(step_rows.items())),
        tuple((device, category, rows) for (device, category), rows in sorted(bucket_rows.items())),
    )


@dataclass(frozen=True)
class TaskRecord:
    """A completed task with its simulated start and end times."""

    task: SimTask
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def resource(self) -> str:
        return self.task.resource

    @property
    def kind(self) -> TaskKind:
        return self.task.kind


def _at(values: List[float], rows: Sequence[int]) -> Iterable[float]:
    """``values`` at positions ``rows``: a slice when they are one contiguous run."""
    if isinstance(rows, range) and rows.step == 1:
        return values[rows.start : rows.stop]
    return map(values.__getitem__, rows)


class RecordView(Sequence):
    """Read-only sequence of a trace's :class:`TaskRecord` objects.

    ``len()`` is answered from the trace's columns; the records themselves
    are built (once, for the whole trace) on the first item access or
    iteration.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.ends)

    def __getitem__(self, index):
        return self._trace._built_records()[index]

    def __iter__(self) -> Iterator[TaskRecord]:
        return iter(self._trace._built_records())


class Trace:
    """The full record of one simulation run, kept as columns.

    Row ``i`` is task ``task_ids[i]`` of ``tasks`` (the engine that ran it),
    simulated from ``starts[i]`` to ``ends[i]``.  Rows are in ascending
    task-id order.  Sub-traces (:meth:`filter`, :meth:`window`,
    :meth:`for_step`) share the task table and keep a subset of rows.
    A run passes ``steps``, the ``(step, rows)`` of each step label
    ``>= 0``, ascending, ``totals``, what :meth:`busy_totals` returns,
    and the :attr:`makespan`; otherwise the first two are read from
    :attr:`layout` and the makespan from the end times.
    """

    __slots__ = (
        "tasks",
        "task_ids",
        "starts",
        "ends",
        "_records",
        "_layout",
        "_steps",
        "_totals",
        "_makespan",
    )

    def __init__(
        self,
        tasks: "SimulationEngine",
        task_ids: Sequence,
        starts: List[float],
        ends: List[float],
        steps: Optional[Sequence[Tuple[int, Sequence[int]]]] = None,
        totals: Optional[Dict[Tuple[int, str], float]] = None,
        makespan: Optional[float] = None,
    ) -> None:
        self.tasks = tasks
        self.task_ids = task_ids
        self.starts = starts
        self.ends = ends
        self._records: Optional[Tuple[TaskRecord, ...]] = None
        self._layout: Optional[AccountingLayout] = None
        self._steps = steps
        self._totals = totals
        self._makespan = makespan

    @property
    def layout(self) -> AccountingLayout:
        """Which rows each step and each ``(device, category)`` covers."""
        if self._layout is None:
            self._layout = accounting_layout(self.tasks, self.task_ids)
        return self._layout

    # ------------------------------------------------------------------ #
    # Records (built lazily)
    # ------------------------------------------------------------------ #
    @property
    def records(self) -> RecordView:
        """Every task record, in task-id order (a lazy, read-only view)."""
        return RecordView(self)

    def _built_records(self) -> Tuple[TaskRecord, ...]:
        if self._records is None:
            task = self.tasks.task
            self._records = tuple(
                TaskRecord(task=task(task_id), start=start, end=end)
                for task_id, start, end in self.rows()
            )
        return self._records

    def rows(self) -> Iterator[Tuple[int, float, float]]:
        """``(task_id, start, end)`` per row, without building records."""
        return zip(self.task_ids, self.starts, self.ends)

    def _subset(self, positions: Iterable[int]) -> "Trace":
        """A sub-trace made of the rows at ``positions`` (ascending)."""
        positions = tuple(positions)
        ids, starts, ends = self.task_ids, self.starts, self.ends
        return Trace(
            self.tasks,
            tuple(ids[p] for p in positions),
            [starts[p] for p in positions],
            [ends[p] for p in positions],
        )

    # ------------------------------------------------------------------ #
    @property
    def makespan(self) -> float:
        """Total simulated time from 0 to the last task completion."""
        if self._makespan is None:
            self._makespan = max(self.ends, default=0.0)
        return self._makespan

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self) -> Iterator[TaskRecord]:
        return iter(self._built_records())

    def __repr__(self) -> str:
        return f"Trace({len(self)} tasks, makespan={self.makespan!r})"

    # Traces compare and hash by their records, as they always have.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self._built_records() == other._built_records()

    def __hash__(self) -> int:
        return hash(self._built_records())

    # ------------------------------------------------------------------ #
    # Filtering / grouping
    # ------------------------------------------------------------------ #
    def filter(self, predicate: Callable[[TaskRecord], bool]) -> "Trace":
        """A sub-trace containing only records matching ``predicate``."""
        records = self._built_records()
        positions = [p for p, record in enumerate(records) if predicate(record)]
        sub = self._subset(positions)
        sub._records = tuple(records[p] for p in positions)
        return sub

    def for_step(self, step: int) -> "Trace":
        """Records belonging to one training step."""
        return self._subset(dict(self.layout.steps).get(step, ()))

    def steps(self) -> Tuple[int, ...]:
        """Sorted step labels present in the trace (excluding unlabeled -1)."""
        return tuple(step for step, _ in self._labelled_steps())

    def _labelled_steps(self) -> Sequence[Tuple[int, Sequence[int]]]:
        """``(step, rows)`` of the step labels ``>= 0``, ascending."""
        if self._steps is not None:
            return self._steps
        return [group for group in self.layout.steps if group[0] >= 0]

    # ------------------------------------------------------------------ #
    # Time accounting
    # ------------------------------------------------------------------ #
    def busy_totals(self) -> Dict[Tuple[int, str], float]:
        """Seconds of each ``(device, category)`` of :attr:`layout`, in its order.

        A bucket's seconds are its rows' ``end - start``, added with ``+=``
        in row order: from Python 3.12 on, ``sum()`` of floats is
        compensated and would round differently.
        """
        if self._totals is None:
            starts, ends = self.starts, self.ends
            totals = {}
            for device, category, rows in self.layout.buckets:
                total = 0.0
                for row in rows:
                    total += ends[row] - starts[row]
                totals[device, category] = total
            self._totals = totals
        return self._totals

    def resource_busy_time(self, resource: str, kinds: Optional[Iterable[TaskKind]] = None) -> float:
        """Total busy time of one resource, optionally restricted to kinds."""
        kind_set = set(kinds) if kinds is not None else None
        resources, task_kinds = self.tasks.resources, self.tasks.kinds
        total = 0.0
        for task_id, start, end in self.rows():
            if resources[task_id] != resource:
                continue
            if kind_set is not None and task_kinds[task_id] not in kind_set:
                continue
            total += end - start
        return total

    def window(self, start: float, end: float) -> "Trace":
        """Records overlapping the time interval [start, end)."""
        return self._subset(
            p
            for p, (task_start, task_end) in enumerate(zip(self.starts, self.ends))
            if task_end > start and task_start < end
        )

    def _first_start(self, rows: Sequence[int]) -> float:
        return min(_at(self.starts, rows))

    def _last_end(self, rows: Sequence[int]) -> float:
        return max(_at(self.ends, rows))

    def step_boundaries(self) -> Dict[int, Tuple[float, float]]:
        """Per-step (earliest start, latest end) over labeled records."""
        return {
            step: (self._first_start(rows), self._last_end(rows))
            for step, rows in self._labelled_steps()
        }

    def steady_state_step_time(self, skip_first: int = 1) -> float:
        """Average per-step time ignoring the first ``skip_first`` warm-up steps.

        Measured from consecutive step completion times so pipelined overlap
        between steps is accounted for: the span runs from the end of the
        last skipped step to the end of the last step.  With nothing to skip
        (``skip_first=0``), or too few steps to skip that many, it runs from
        the first step's start instead and covers every step.
        """
        if skip_first < 0:
            raise ValueError(f"skip_first must be non-negative, got {skip_first}")
        steps = self._labelled_steps()
        if not steps:
            return 0.0
        last_end = self._last_end(steps[-1][1])
        if skip_first == 0 or len(steps) <= skip_first + 1:
            span = last_end - self._first_start(steps[0][1])
            return span / len(steps)
        span = last_end - self._last_end(steps[skip_first - 1][1])
        return span / (len(steps) - skip_first)
