"""Execution traces produced by the simulation engine.

A :class:`Trace` is columnar: it keeps the engine's task table (see
:class:`~repro.sim.engine.SimulationEngine`) plus, per row, the task id and
its simulated start and end time.  The time accounting below reads those
columns directly; :attr:`Trace.records` is a read-only sequence view that
builds :class:`TaskRecord` objects the first time one is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.sim.events import SimTask, TaskKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import SimulationEngine


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
    """

    __slots__ = ("tasks", "task_ids", "starts", "ends", "_records")

    def __init__(
        self,
        tasks: "SimulationEngine",
        task_ids: Sequence,
        starts: List[float],
        ends: List[float],
    ) -> None:
        self.tasks = tasks
        self.task_ids = task_ids
        self.starts = starts
        self.ends = ends
        self._records: Optional[Tuple[TaskRecord, ...]] = None

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
        return max(self.ends, default=0.0)

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

    def by_resource(self) -> Dict[str, List[TaskRecord]]:
        """Records grouped by resource, in start-time order."""
        grouped: Dict[str, List[TaskRecord]] = {}
        for record in sorted(self.records, key=lambda r: (r.start, r.task.task_id)):
            grouped.setdefault(record.resource, []).append(record)
        return grouped

    def by_kind(self) -> Dict[TaskKind, List[TaskRecord]]:
        """Records grouped by task kind."""
        grouped: Dict[TaskKind, List[TaskRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.kind, []).append(record)
        return grouped

    def for_step(self, step: int) -> "Trace":
        """Records belonging to one training step."""
        steps = self.tasks.steps
        return self._subset(
            p for p, task_id in enumerate(self.task_ids) if steps[task_id] == step
        )

    def steps(self) -> Tuple[int, ...]:
        """Sorted step labels present in the trace (excluding unlabeled -1)."""
        steps = self.tasks.steps
        return tuple(sorted({steps[i] for i in self.task_ids if steps[i] >= 0}))

    # ------------------------------------------------------------------ #
    # Time accounting
    # ------------------------------------------------------------------ #
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

    def resource_span(self, resource: str) -> Tuple[float, float]:
        """(first start, last end) of a resource, or (0, 0) if unused."""
        resources = self.tasks.resources
        times = [
            (start, end)
            for task_id, start, end in self.rows()
            if resources[task_id] == resource
        ]
        if not times:
            return (0.0, 0.0)
        return min(start for start, _ in times), max(end for _, end in times)

    def window(self, start: float, end: float) -> "Trace":
        """Records overlapping the time interval [start, end)."""
        return self._subset(
            p
            for p, (task_start, task_end) in enumerate(zip(self.starts, self.ends))
            if task_end > start and task_start < end
        )

    def kind_time_on_resource(self, resource: str) -> Dict[TaskKind, float]:
        """Busy time per kind on one resource."""
        resources, kinds = self.tasks.resources, self.tasks.kinds
        totals: Dict[TaskKind, float] = {}
        for task_id, start, end in self.rows():
            if resources[task_id] != resource:
                continue
            kind = kinds[task_id]
            totals[kind] = totals.get(kind, 0.0) + (end - start)
        return totals

    def step_boundaries(self) -> Dict[int, Tuple[float, float]]:
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
        bounds = self.step_boundaries()
        steps = sorted(bounds)
        if not steps:
            return 0.0
        if skip_first == 0 or len(steps) <= skip_first + 1:
            span = bounds[steps[-1]][1] - bounds[steps[0]][0]
            return span / len(steps)
        span = bounds[steps[-1]][1] - bounds[steps[skip_first - 1]][1]
        return span / (len(steps) - skip_first)
