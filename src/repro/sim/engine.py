"""A small deterministic discrete-event simulation engine.

The engine executes a static task graph: each :class:`~repro.sim.events.SimTask`
names a serial resource, a duration, and a set of dependencies.  A task may
start once all its dependencies have finished *and* its resource is free;
when several tasks compete for the same resource, the one added to the engine
first wins (insertion order equals program order, which matches how a real
framework would enqueue kernels on a CUDA stream).

The result is a :class:`~repro.sim.trace.Trace` with the start and end time of
every task.  Neither side keeps one object per task: the engine stores its
task graph as columns and the trace adds two more (start and end times), so
:class:`~repro.sim.events.SimTask` and :class:`~repro.sim.trace.TaskRecord`
objects are only built when a caller reads them.

A training graph is periodic: one step's rows (a :class:`StepBlock`, each
dependency in the same step or the previous one) repeat every step.  A
:class:`GraphTemplate` holds one block, its durations *slot* indices, and
what a run of it needs, computed once: its run structure, accounting buckets
and checks.  :meth:`GraphTemplate.instantiate` makes a read-only engine of
any number of steps from one value per slot; its run reads the block with
step offsets, and no many-step copy of the graph is ever made.
:meth:`SimulationEngine.freeze` makes the template of any engine.

A template also knows whether the graph is *in order*: whether, whatever
the durations and the step count, every resource runs its tasks in id order
(see :func:`_runs_in_id_order`).  An instance of such a template is run in
one pass over its rows instead of the event heap, with bit-identical start
and end times.
"""

from __future__ import annotations

import heapq
import sys
from array import array
from collections.abc import Sequence
from itertools import accumulate, chain, compress, islice, repeat
from math import isfinite
from operator import add, not_, sub
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import SimTask, TaskKind, check_duration
from repro.sim.trace import Trace, accounting_layout


def _unknown_dependency(name: str, dep: int) -> SimulationError:
    return SimulationError(
        f"task {name!r} depends on unknown task id {dep} "
        f"(only earlier tasks may be dependencies)"
    )


class _BlockStructure(NamedTuple):
    """What a run of one step's rows needs besides their durations, for any step count.

    Rows are the block's: row ``i`` of step ``k`` is task ``k * R + i`` of
    the run.  Dependencies and dependents are stored relative to their
    row: a dependency ``t`` of row ``i`` (signed as in :class:`StepBlock`)
    as ``t - i``, which indexes the row's step-``k`` dependency from the end
    of the end times run so far (``k * R + i`` of them); a dependent ``d``
    as ``d - i``, or ``R + d - i`` in the next step.
    """

    resource_ids: List[int]  # interned resource index of each row
    num_resources: int
    first_counts: List[int]  # dependencies of each row in step 0
    counts: List[int]  # dependencies of each row in every later step
    dependents: Tuple[Tuple[int, ...], ...]  # each row's, ascending, relative
    # The one pass's (counts, targets) in step 0 and in every later step:
    # dependencies on other resources only, as a task's own resource frees
    # no earlier than any task before it there ends.
    reads: Tuple[Tuple[List[int], List[int]], Tuple[List[int], List[int]]]
    buckets: List[int]  # each row's index in bucket_keys, len(bucket_keys) if uncounted
    bucket_keys: Tuple[Tuple[int, str], ...]  # (device, category) of each accounting bucket
    step_rows: Tuple[Tuple[int, Sequence[int]], ...]  # the block's rows by step label, ascending
    in_order: bool  # runs in one pass in id order (see _runs_in_id_order)


def _block_structure(
    table, dep_offsets: array, dep_targets: array, checked_steps: int
) -> _BlockStructure:
    """The run structure of the block ``table`` (a :class:`StepBlock` or an engine's rows).

    Row ``i``'s dependencies are ``dep_targets[dep_offsets[i]:dep_offsets[i + 1]]``,
    signed as in :class:`StepBlock`; the accounting buckets and step labels
    come from the block's :func:`~repro.sim.trace.accounting_layout`.  The
    block is in order when :func:`_runs_in_id_order` finds ``checked_steps``
    steps of it so (never, for none).
    """
    stride = len(table.resources)
    resource_index: Dict[str, int] = {}
    resource_ids = [
        resource_index.setdefault(resource, len(resource_index)) for resource in table.resources
    ]
    counts = list(map(sub, dep_offsets[1:], dep_offsets))
    first_counts = list(counts)
    first_targets: List[int] = []
    targets: List[int] = []
    same: List[List[int]] = [[] for _ in counts]
    later: List[List[int]] = [[] for _ in counts]
    for row, dep in zip(chain.from_iterable(map(repeat, range(stride), counts)), dep_targets):
        targets.append(dep - row)
        if dep >= 0:
            first_targets.append(dep - row)
            same[dep].append(row - dep)
        else:
            later[stride + dep].append(row - dep)
            first_counts[row] -= 1
    dependents = tuple(map(tuple, map(add, same, later)))
    first, every = (first_counts, first_targets), (counts, targets)
    in_order = checked_steps > 0 and _runs_in_id_order(
        resource_ids, dependents, first, every, checked_steps
    )

    def foreign_reads(row_counts: List[int], row_targets: List[int]):
        """The dependencies on another resource than their row's."""
        kept_counts, kept = [0] * stride, []
        rows = chain.from_iterable(map(repeat, range(stride), row_counts))
        for row, dep in zip(rows, row_targets):
            if resource_ids[(row + dep) % stride] != resource_ids[row]:
                kept_counts[row] += 1
                kept.append(dep)
        return kept_counts, kept

    layout = accounting_layout(table, range(stride))
    buckets = [len(layout.buckets)] * stride
    for index, (_, _, rows) in enumerate(layout.buckets):
        for row in rows:
            buckets[row] = index
    return _BlockStructure(
        resource_ids=resource_ids,
        num_resources=len(resource_index),
        first_counts=first_counts,
        counts=counts,
        dependents=dependents,
        reads=(foreign_reads(*first), foreign_reads(*every)),
        buckets=buckets,
        bucket_keys=tuple((device, category) for device, category, _ in layout.buckets),
        step_rows=tuple(
            (label, range(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1 else rows)
            for label, rows in layout.steps
        ),
        in_order=in_order,
    )


def _runs_in_id_order(
    resource_ids: List[int],
    dependents: Tuple[Tuple[int, ...], ...],
    first: Tuple[List[int], List[int]],
    every: Tuple[List[int], List[int]],
    steps: int,
) -> bool:
    """True when no task of ``steps`` steps of a block can overtake a lower id on its resource.

    The block's rows are as in :class:`_BlockStructure`, its dependencies
    given as ``(counts, targets)`` in step 0 (``first``) and in every
    later step (``every``).

    Let G' be the dependency edges plus, on each resource, an edge from
    every task to the next one by id, and A(b) task ``b``'s dependencies
    with all their G'-ancestors.  The graph is in order iff for every pair
    of tasks ``a < b`` on one resource, every dependency of ``a`` on
    another resource lies in A(b).  (If so, take the first pop of the event
    heap that breaks id order on a resource: ``b`` pops while ``a < b`` is
    the lowest task not yet run there.  A(b) has all run, and so have
    ``a``'s dependencies on its own resource, all below ``a``; so ``a`` is
    queued, and as the queue's head it pops before ``b``.)  Whatever the
    durations, such a graph's heap loop then runs each resource's tasks in
    id order, each as soon as its resource is free and its dependencies
    have ended; the condition holds for every row prefix as well.

    Of the graphs a :class:`StepBlock` of ``R`` rows repeats, the one of
    three steps decides for every step count.  Say ``d``, a dependency of
    ``a`` on another resource, is not in A(b).  Each dependency ``x`` of
    ``b - R`` has ``x + R`` among ``b``'s, and ``x`` is a G'-ancestor of
    ``x + R`` (its resource's chain), so A(b - R) lies in A(b): ``b`` may
    move back a step while it stays after ``a``.  Shifting paths forward gives A(b - R) + R
    within A(b), so all three may move back a step while ``a`` keeps its
    edge to ``d``: down to step 0 for a lag-0 edge, step 1 for a lag-1 one.
    ``b`` is then at most one step after ``a``, in step 2 at most.

    Sets are Python-int bitsets over row ids.  A row's closure (itself with
    its G'-ancestors) is kept only until its last dependent has read it,
    and that of the last row on each resource until the next one.
    """
    stride = len(resource_ids)
    rows = stride * steps
    # Each row's dependents among the rows checked.
    unread = [
        len([dep for dep in dependents[row] if task + dep < rows])
        for task, row in zip(range(rows), chain.from_iterable(repeat(range(stride), steps)))
    ]
    closures = [0] * rows
    last = [0] * (max(resource_ids, default=0) + 1)  # closure of each resource's latest row
    foreign = [0] * len(last)  # its rows' deps on other resources
    bit = 1
    task = 0
    counts, targets = first
    for _ in range(steps):
        deps = iter(targets)
        for res, count in zip(resource_ids, counts):
            ancestors, outside = 0, foreign[res]
            for dep in islice(deps, count):
                dep += task
                ancestors |= closures[dep]
                if resource_ids[dep % stride] != res:
                    outside |= 1 << dep
                unread[dep] -= 1
                if not unread[dep]:
                    closures[dep] = 0
            if outside & ~ancestors:
                return False
            foreign[res] = outside
            last[res] = closure = ancestors | last[res] | bit
            if unread[task]:
                closures[task] = closure
            bit <<= 1
            task += 1
        counts, targets = every
    return True


class _RunSteps(Sequence):
    """``(label, rows)`` of each step label ``>= 0`` of a run, ascending, each made when read.

    The run is ``steps`` steps of a block whose rows by step label are
    ``groups`` (each a ``range`` when contiguous); row ``i`` of step ``k``
    is task ``k * R + i``, labelled its block row's label plus ``k``.
    """

    __slots__ = ("_groups", "_stride", "_steps", "_labels")

    def __init__(
        self, groups: Tuple[Tuple[int, Sequence[int]], ...], stride: int, steps: int
    ) -> None:
        self._groups, self._stride, self._steps = groups, stride, steps
        labels = [range(max(label, 0), label + steps) for label, _ in groups]
        self._labels = labels[0] if len(labels) == 1 else sorted(set().union(*labels))

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, index: int) -> Tuple[int, Sequence[int]]:
        label = self._labels[index]
        # Later steps' rows of lower block labels come last: ascending rows.
        parts = [
            (rows, (label - own) * self._stride)
            for own, rows in reversed(self._groups)
            if 0 <= label - own < self._steps
        ]
        if len(parts) == 1 and isinstance(parts[0][0], range):
            ((rows, offset),) = parts
            return label, range(rows.start + offset, rows.stop + offset)
        return label, [row + offset for rows, offset in parts for row in rows]


def _run_in_order(
    structure: _BlockStructure, durations: List[float], steps: int
) -> Tuple[List[float], List[float], List[float], float]:
    """Start and end times, bucket totals and makespan of ``steps`` steps of an in-order block.

    Each task starts at the latest of its resource's free time and its
    dependencies' end times on other resources (:attr:`_BlockStructure.reads`),
    read from the rows already run.  Its
    ``end - start`` is added to its bucket as it runs, so each bucket adds
    its rows in row order.
    """
    rows = list(zip(structure.resource_ids, durations, structure.buckets))
    free = [0.0] * structure.num_resources
    totals = [0.0] * (len(structure.bucket_keys) + 1)
    start_time: List[float] = []
    finish_time: List[float] = []
    (counts, targets), later = structure.reads
    for _ in range(steps):
        deps = iter(targets)
        for (res, duration, bucket), count in zip(rows, counts):
            start_at = free[res]
            if count == 1:
                ready_at = finish_time[next(deps)]
                if ready_at > start_at:
                    start_at = ready_at
            elif count:
                for dep in islice(deps, count):
                    ready_at = finish_time[dep]
                    if ready_at > start_at:
                        start_at = ready_at
            end_at = start_at + duration
            start_time.append(start_at)
            finish_time.append(end_at)
            free[res] = end_at
            totals[bucket] += end_at - start_at
        counts, targets = later
    # Each resource ends when its last task does, the latest of its tasks.
    return start_time, finish_time, totals, max(free, default=0.0)


#: The task-table columns of a :class:`SimulationEngine`, one list per attribute.
_COLUMNS = (
    "names",
    "kinds",
    "resources",
    "durations",
    "deps",
    "steps",
    "devices",
    "blocks",
    "metadata",
)


class SimulationEngine:
    """Builds and runs a task graph on serial resources.

    Tasks are kept as a columnar task table: one list per attribute
    (``names``, ``kinds``, ``resources``, ``durations``, ``deps``,
    ``steps``, ``devices``, ``blocks``, ``metadata``), where row ``i`` is the
    task with id ``i``.  The columns only ever grow, so a
    :class:`~repro.sim.trace.Trace` returned by :meth:`run` can keep reading
    the rows it covers.  :meth:`task` builds a :class:`SimTask` for one row
    on demand; treat the columns as read-only and add rows with
    :meth:`add_task`.

    An engine made by :meth:`GraphTemplate.instantiate` runs the template's
    block for some number of steps; it builds its columns the first time
    one is read, and it is read-only, so :meth:`add_task` raises
    :class:`SimulationError`.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.kinds: List[TaskKind] = []
        self.resources: List[str] = []
        self.durations: List[float] = []
        self.deps: List[Tuple[int, ...]] = []
        self.steps: List[int] = []
        self.devices: List[int] = []
        self.blocks: List[int] = []
        self.metadata: List[Optional[dict]] = []
        # Run structure, computed on the first run after the last add_task.
        self._structure: Optional[_BlockStructure] = None
        self._template: Optional[GraphTemplate] = None

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #
    def add_task(
        self,
        name: str,
        kind: TaskKind,
        resource: str,
        duration: float,
        deps: Iterable[int] = (),
        step: int = -1,
        device: int = -1,
        block: int = -1,
        metadata: Optional[dict] = None,
    ) -> int:
        """Add a task and return its id (usable as a dependency handle)."""
        if self._template is not None:
            raise SimulationError(
                f"cannot add task {name!r}: this engine runs a shared graph template "
                f"and is read-only"
            )
        task_id = len(self.durations)
        deps_tuple: Tuple[int, ...] = tuple(deps)
        for dep in deps_tuple:
            if dep < 0 or dep >= task_id:
                raise _unknown_dependency(name, dep)
        duration = float(duration)
        check_duration(name, duration)
        self.names.append(name)
        self.kinds.append(kind)
        self.resources.append(resource)
        self.durations.append(duration)
        self.deps.append(deps_tuple)
        self.steps.append(step)
        self.devices.append(device)
        self.blocks.append(block)
        self.metadata.append(metadata)
        self._structure = None
        return task_id

    @property
    def num_tasks(self) -> int:
        return len(self.durations)

    def task(self, task_id: int) -> SimTask:
        """The task in row ``task_id`` (negative ids count from the end)."""
        task_id = range(self.num_tasks)[task_id]
        return SimTask(
            task_id=task_id,
            name=self.names[task_id],
            kind=self.kinds[task_id],
            resource=self.resources[task_id],
            duration=self.durations[task_id],
            deps=self.deps[task_id],
            step=self.steps[task_id],
            device=self.devices[task_id],
            block=self.blocks[task_id],
            metadata=self.metadata[task_id] or {},
        )

    def freeze(self) -> "GraphTemplate":
        """This graph as a :class:`GraphTemplate` of one step; durations are slot indices."""
        num_rows = len(self.names)
        return GraphTemplate(
            step_block(
                names=[(name,) for name in self.names],
                kinds=self.kinds,
                resources=self.resources,
                slots=self.durations,
                deps=self.deps,
                carried=[()] * num_rows,
                steps=self.steps,
                devices=self.devices,
                blocks=self.blocks,
                metadata=self.metadata,
            )
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _run_inputs(self) -> Tuple[_BlockStructure, List[float], int]:
        """The run structure, one step's durations and the number of steps :meth:`run` runs.

        A plain engine is one step of its own rows, computed once per
        engine after its last :meth:`add_task`, and runs on the event loop.
        """
        structure = self._structure
        if structure is None:
            structure = self._structure = _block_structure(
                self,
                array("i", accumulate(map(len, self.deps), initial=0)),
                array("i", chain.from_iterable(self.deps)),
                checked_steps=0,
            )
        return structure, self.durations, 1

    def run(self) -> Trace:
        """Execute the task graph and return the trace.

        Because dependencies may only point to earlier tasks, the graph is
        acyclic by construction; the engine is therefore a deterministic list
        scheduler.

        An instance of an in-order template (:attr:`GraphTemplate.in_order`)
        is run in one pass in id order (:func:`_run_in_order`): each task
        starts at the latest of its resource's free time and its
        dependencies' end times, those on its own resource being no later
        than the free time.  The event loop starts it at the same maximum of
        the same end times (a maximum is exact, in any order) and ends it
        with the same one addition, so the times are bit-identical.
        Any other graph runs on the event loop of :meth:`_run_events`.

        The trace gets each accounting bucket's busy time, added in row
        order, and each step label's rows from the run itself.
        """
        structure, durations, steps = self._run_inputs()
        if structure.in_order:
            start_time, finish_time, totals, makespan = _run_in_order(structure, durations, steps)
        else:
            start_time, finish_time, totals, makespan = self._run_events(
                structure, durations, steps
            )
        return Trace(
            self,
            range(len(finish_time)),
            start_time,
            finish_time,
            steps=_RunSteps(structure.step_rows, len(durations), steps),
            totals=dict(zip(structure.bucket_keys, totals)),
            makespan=makespan,
        )

    def _run_events(
        self, structure: _BlockStructure, durations: List[float], steps: int
    ) -> Tuple[List[float], List[float], List[float], float]:
        """:meth:`run`'s event loop: start and end times by id, bucket totals and makespan.

        The loop keeps one *candidate* per resource — its queue head, stamped
        with the start time it would get right now — in a single global heap,
        and lazily invalidates candidates whose resource state moved on
        (a cheaper-id task arrived, or the resource's free time advanced).
        This pops the same task the previous per-event scan over all
        resources selected — the candidate tuples order exactly like the
        scan's ``(start_at, task_id, resource)`` comparison — at O(log R)
        per event instead of O(R).  A task's dependents are its block row's
        (:class:`_BlockStructure`), same-step and next-step ones.  The
        bucket totals add each row's ``end - start`` after the loop, in row
        order.
        """
        stride = len(durations)
        num_tasks = stride * steps
        heappush, heappop = heapq.heappush, heapq.heappop
        block_dependents = structure.dependents
        task_resource = structure.resource_ids * steps
        # The last step's next-step dependents, past ``num_tasks``, never
        # become ready.
        remaining_deps = structure.first_counts + structure.counts * (steps - 1)
        remaining_deps += [-1] * stride

        # Per-resource FIFO of ready task ids (insertion order == program
        # order == ascending id, so a plain int heap suffices) and the time
        # each resource becomes free.
        num_resources = structure.num_resources
        queues: List[List[int]] = [[] for _ in range(num_resources)]
        free = [0.0] * num_resources
        # Earliest time a task's dependencies are satisfied.
        ready_time = [0.0] * (num_tasks + stride)

        start_time = [0.0] * num_tasks
        finish_time: List[Optional[float]] = [None] * num_tasks

        # Ascending ids: each queue is a heap as built.
        for task_id in compress(range(num_tasks), map(not_, remaining_deps)):
            queues[task_resource[task_id]].append(task_id)

        # One candidate per resource with pending work; stale entries are
        # recognised on pop by re-deriving the head and its start time.
        candidates: List[Tuple[float, int, int]] = [
            (0.0, queue[0], res) for res, queue in enumerate(queues) if queue
        ]
        heapq.heapify(candidates)

        completed = 0
        while completed < num_tasks:
            while candidates:
                start_at, task_id, res = heappop(candidates)
                queue = queues[res]
                if not queue or queue[0] != task_id:
                    continue  # superseded head: a fresher candidate exists
                ready_at, free_at = ready_time[task_id], free[res]
                if start_at != (ready_at if ready_at > free_at else free_at):
                    continue  # stamped before the resource's free time moved
                break
            else:
                pending = [
                    self.names[index]
                    for index in range(num_tasks)
                    if finish_time[index] is None
                ]
                raise SimulationError(
                    f"simulation deadlocked with {len(pending)} unfinished tasks; "
                    f"first few: {pending[:5]}"
                )
            heappop(queue)
            row = task_id % stride
            end_at = start_at + durations[row]
            start_time[task_id] = start_at
            finish_time[task_id] = end_at
            free[res] = end_at
            completed += 1
            if queue:
                head = queue[0]
                head_ready = ready_time[head]
                heappush(
                    candidates,
                    (head_ready if head_ready > end_at else end_at, head, res),
                )
            for dependent in block_dependents[row]:
                dependent += task_id
                remaining_deps[dependent] -= 1
                if ready_time[dependent] < end_at:
                    ready_time[dependent] = end_at
                if remaining_deps[dependent] == 0:
                    dep_res = task_resource[dependent]
                    dep_queue = queues[dep_res]
                    heappush(dep_queue, dependent)
                    if dep_queue[0] == dependent:
                        dep_ready, dep_free = ready_time[dependent], free[dep_res]
                        heappush(
                            candidates,
                            (
                                dep_ready if dep_ready > dep_free else dep_free,
                                dependent,
                                dep_res,
                            ),
                        )

        totals = [0.0] * (len(structure.bucket_keys) + 1)
        for bucket, start_at, end_at in zip(structure.buckets * steps, start_time, finish_time):
            totals[bucket] += end_at - start_at
        return start_time, finish_time, totals, max(free, default=0.0)


class StepBlock(NamedTuple):
    """One step of a periodic task graph: the rows a :class:`GraphTemplate` runs each step.

    Row ``i`` of step ``k`` (task ``k * R + i`` of a run, for a block of
    ``R`` rows) is named ``str(k).join(names[i])``, is labelled
    step ``steps[i] + k`` and lasts slot ``slots[i]``; its kind, resource,
    device, block and metadata are the block row's.  Its dependencies are
    ``dep_targets[dep_offsets[i]:dep_offsets[i + 1]]``: a target ``t >= 0``
    is row ``t`` of the same step (lag 0, ``t < i``), and ``t < 0`` is row
    ``R + t`` of the previous step (lag 1), an edge step 0 does not have.
    In max-plus terms the lag-0 edges are A0 and the lag-1 edges A1 of
    x(k) = A0 x(k) + A1 x(k - 1).

    Make one with :func:`step_block`, which checks the rows once.
    """

    names: Tuple[Tuple[str, ...], ...]
    kinds: Tuple[TaskKind, ...]
    resources: Tuple[str, ...]
    slots: array
    dep_offsets: array
    dep_targets: array
    steps: array
    devices: array
    blocks: array
    metadata: Tuple[Optional[dict], ...]
    slot_names: Tuple[str, ...]  # step-0 name of the first row using each slot


def step_block(
    names: Sequence[Tuple[str, ...]],
    kinds: Sequence[TaskKind],
    resources: Sequence[str],
    slots: Sequence,
    deps: Sequence[Sequence[int]],
    carried: Sequence[Sequence[int]],
    steps: Sequence[int],
    devices: Sequence[int],
    blocks: Sequence[int],
    metadata: Sequence[Optional[dict]],
) -> StepBlock:
    """The :class:`StepBlock` of one step's rows, given as columns.

    ``names[i]`` holds the pieces of row ``i``'s name, joined by the step
    number; ``deps[i]`` lists its dependencies in the same step (earlier
    rows) and ``carried[i]`` those in the previous step (any row), each by
    row index.  Every slot must be an integer, the slots numbered
    ``0..k-1``; a bad row raises :class:`SimulationError` naming its
    step-0 task.
    """
    num_rows = len(names)
    first_use: Dict[int, Tuple[str, ...]] = {}
    for row, (pieces, slot, row_deps, row_carried) in enumerate(
        zip(names, slots, deps, carried)
    ):
        if int(slot) != slot:
            raise SimulationError(
                f"task {'0'.join(pieces)!r} has duration {slot!r}: template durations "
                f"must be integer slot indices"
            )
        first_use.setdefault(slot, pieces)
        for dep in row_deps:
            if dep < 0 or dep >= row:
                raise _unknown_dependency("0".join(pieces), dep)
        for dep in row_carried:
            if dep < 0 or dep >= num_rows:
                raise SimulationError(
                    f"task {'0'.join(pieces)!r} depends on unknown task id {dep} "
                    f"of the previous step"
                )
    slot_range = range(len(first_use))
    if sorted(first_use) != list(slot_range):
        raise SimulationError("template slots must be numbered 0..k-1")
    intern = sys.intern
    # A lag-1 dependency on row j is stored as j - R, below 0.
    signed = [(*row, *(dep - num_rows for dep in lagged)) for row, lagged in zip(deps, carried)]
    return StepBlock(
        names=tuple(tuple(map(intern, pieces)) for pieces in names),
        kinds=tuple(kinds),
        resources=tuple(map(intern, resources)),
        slots=array("i", map(int, slots)),
        dep_offsets=array("i", accumulate(map(len, signed), initial=0)),
        dep_targets=array("i", chain.from_iterable(signed)),
        steps=array("i", steps),
        devices=array("i", devices),
        blocks=array("i", blocks),
        metadata=tuple(metadata),
        slot_names=tuple(intern("0".join(first_use[slot])) for slot in slot_range),
    )


class GraphTemplate:
    """An immutable one-step task graph, run for any number of steps with durations filled in.

    A template holds its :class:`StepBlock` (see it for how the block's
    rows repeat each step), whose checks ran once, when it was made, and
    :attr:`structure` (a :class:`_BlockStructure`), what every run of it
    shares: dependency counts for step 0 and for later steps, same-step and
    next-step dependents, the dependencies the one pass reads, interned
    resource ids, each row's ``(device, category)`` accounting bucket and
    step label, and :attr:`in_order`.
    :meth:`SimulationEngine.freeze` makes the template of an engine's rows,
    whose durations are slot indices; :meth:`instantiate` takes one value
    per slot and a step count.

    :attr:`in_order` is true when, whatever the durations and the step
    count, every resource runs its tasks in id order
    (:func:`_runs_in_id_order`); the instances of such a template run in one
    pass instead of the event loop.  Three steps of the block are checked:
    they decide for any number of steps.
    """

    __slots__ = ("block", "structure")

    def __init__(self, block: StepBlock) -> None:
        self.block = block
        # Three steps decide the order for any number (see _runs_in_id_order).
        self.structure = _block_structure(block, block.dep_offsets, block.dep_targets, 3)

    @property
    def in_order(self) -> bool:
        return self.structure.in_order

    @property
    def slot_names(self) -> Tuple[str, ...]:
        return self.block.slot_names

    @property
    def num_tasks(self) -> int:
        """Rows of one step."""
        return len(self.block.slots)

    def instantiate(self, values: Sequence, steps: int = 1) -> SimulationEngine:
        """A read-only engine running ``steps`` steps of the block.

        Row ``i`` of every step lasts ``values[slots[i]]``.  Every value is
        checked with :func:`check_duration` under the name of the first
        task using its slot, so an invalid one raises the ``ValueError``
        that :meth:`SimulationEngine.add_task` raises for that task.
        """
        slot_names = self.block.slot_names
        if len(values) != len(slot_names):
            raise SimulationError(
                f"template has {len(slot_names)} slots, got {len(values)} values"
            )
        if steps < 1:
            raise SimulationError(f"a template runs at least one step, not {steps}")
        if not (isinstance(values, array) and values.typecode == "d"):
            values = [float(value) for value in values]
        if not all(map(isfinite, values)) or min(values, default=0.0) < 0.0:
            for name, value in zip(slot_names, values):
                check_duration(name, value)
        return _BlockRun(self, list(map(values.__getitem__, self.block.slots)), steps)

    def columns(self, durations: List[float], steps: int) -> Dict[str, Sequence]:
        """The task table of ``steps`` steps of the block, one step lasting ``durations``.

        Row ``i`` of step ``k`` is named ``str(k).join(names[i])`` and
        labelled step ``steps[i] + k``; its dependencies are the block's
        targets plus ``k * R``, without the lag-1 ones in step 0.
        """
        block = self.block
        stride = len(block.slots)
        offsets = block.dep_offsets
        edges = [block.dep_targets[begin:end] for begin, end in zip(offsets, offsets[1:])]
        return {
            "names": [str(step).join(pieces) for step in range(steps) for pieces in block.names],
            "kinds": block.kinds * steps,
            "resources": block.resources * steps,
            "durations": durations * steps,
            "deps": [
                tuple(step * stride + dep for dep in row if step or dep >= 0)
                for step in range(steps)
                for row in edges
            ],
            "steps": array("i", [label + step for step in range(steps) for label in block.steps]),
            "devices": block.devices * steps,
            "blocks": block.blocks * steps,
            "metadata": block.metadata * steps,
        }


class _BlockRun(SimulationEngine):
    """A read-only engine of ``steps`` steps of a template, each lasting ``durations``.

    :meth:`run` reads the template's block; the task table
    (:meth:`GraphTemplate.columns`) is built the first time a column is read.
    """

    def __init__(self, template: GraphTemplate, durations: List[float], steps: int) -> None:
        self._template = template
        self._step_durations = durations
        self._step_count = steps

    def __getattr__(self, name: str):
        # Called only for attributes not set yet: a column, on its first read.
        if name not in _COLUMNS:
            raise AttributeError(name)
        self.__dict__.update(self._template.columns(self._step_durations, self._step_count))
        return self.__dict__[name]

    @property
    def num_tasks(self) -> int:
        return len(self._step_durations) * self._step_count

    def _run_inputs(self) -> Tuple[_BlockStructure, List[float], int]:
        return self._template.structure, self._step_durations, self._step_count
