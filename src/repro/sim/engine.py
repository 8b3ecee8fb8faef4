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

A graph that is run many times with different service times is built once
and frozen into a :class:`GraphTemplate`: its durations are *slot* indices,
and :meth:`GraphTemplate.instantiate` makes a read-only engine from one value
per slot, optionally running only a prefix of the rows.  Everything that
depends only on the graph (its checks, run structure and accounting layout)
is done once, when the template is frozen.

Freezing also decides whether the graph is *in order*: whether, whatever the
durations, every resource runs its tasks in id order (see
:func:`_runs_in_id_order`).  An instance of such a template is run in one
pass over its rows instead of the event heap, with bit-identical start and
end times.
"""

from __future__ import annotations

import heapq
import sys
from array import array
from collections.abc import Sequence
from itertools import accumulate, chain, islice
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError
from repro.fold import left_sum
from repro.sim.events import SimTask, TaskKind, check_duration
from repro.sim.trace import AccountingLayout, Trace, accounting_layout


class _Structure(NamedTuple):
    """What :meth:`SimulationEngine.run` needs of a graph besides durations.

    Flat lists, in the form the run loop reads them, so a run converts
    nothing; it copies only the dependency counts of the rows it runs.
    """

    dep_counts: List[int]  # number of dependencies of each row
    dependent_offsets: List[int]  # row i's dependents: dependents[offsets[i]:offsets[i + 1]]
    dependents: List[int]  # ascending within each row
    resource_ids: List[int]  # interned resource index of each row
    resource_index: Dict[str, int]  # resource -> its index, in order of first use


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


def _runs_in_id_order(structure: _Structure, dep_offsets: array, dep_targets: array) -> bool:
    """True when no task can start before a lower-id task on its resource.

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

    Sets are Python-int bitsets over row ids.  A row's closure (itself with
    its G'-ancestors) is kept only until its last dependent has read it,
    and that of the last row on each resource until the next one.
    """
    resource_ids = structure.resource_ids
    offsets = structure.dependent_offsets
    unread = [end - begin for begin, end in zip(offsets, offsets[1:])]
    closures = [0] * len(resource_ids)
    last = [0] * len(structure.resource_index)  # closure of each resource's latest row
    foreign = [0] * len(structure.resource_index)  # its rows' deps on other resources
    bit = 1
    for row, (res, begin, end) in enumerate(zip(resource_ids, dep_offsets, dep_offsets[1:])):
        ancestors, outside = 0, foreign[res]
        for dep in dep_targets[begin:end]:
            ancestors |= closures[dep]
            if resource_ids[dep] != res:
                outside |= 1 << dep
            unread[dep] -= 1
            if not unread[dep]:
                closures[dep] = 0
        if outside & ~ancestors:
            return False
        foreign[res] = outside
        last[res] = closure = ancestors | last[res] | bit
        if unread[row]:
            closures[row] = closure
        bit <<= 1
    return True


def _unknown_dependency(name: str, dep: int) -> SimulationError:
    return SimulationError(
        f"task {name!r} depends on unknown task id {dep} "
        f"(only earlier tasks may be dependencies)"
    )


class _CSRRows(Sequence):
    """The first ``length`` rows of a CSR table, each read as an int tuple."""

    __slots__ = ("_offsets", "_targets", "_length")

    def __init__(self, offsets: array, targets: array, length: int) -> None:
        self._offsets = offsets
        self._targets = targets
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, row: int) -> Tuple[int, ...]:
        row = range(self._length)[row]
        return tuple(self._targets[self._offsets[row] : self._offsets[row + 1]])


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

    An engine made by :meth:`GraphTemplate.instantiate` shares the
    template's columns (tuples and ``array('i')``, sliced when it runs a
    row prefix) and run structure, and only owns its ``durations``; it is
    read-only, so :meth:`add_task` raises :class:`SimulationError`.
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
        self._structure: Optional[_Structure] = None
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
        """This graph as a :class:`GraphTemplate`; durations are slot indices."""
        return GraphTemplate(self)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> Trace:
        """Execute the task graph and return the trace.

        Because dependencies may only point to earlier tasks, the graph is
        acyclic by construction; the engine is therefore a deterministic list
        scheduler.

        An instance of an in-order template (:attr:`GraphTemplate.in_order`)
        is run in one pass in id order: each task starts at the latest of
        its resource's free time and its dependencies' end times, read from
        the rows already run.  The event loop starts it at the same maximum
        of the same end times (a maximum is exact, in any order) and ends it
        with the same one addition, so the times are bit-identical.

        Any other graph runs on the event loop of :meth:`_run_events`.
        """
        num_tasks = len(self.durations)
        durations = self.durations

        # Graph structure, computed once per engine (or per template):
        # dependency counts, the dependents adjacency and interned resources.
        structure = self._structure
        if structure is None:
            structure = self._structure = _run_structure(self.deps, self.resources)
        template = self._template
        if template is not None and template.in_order:
            # The time each resource becomes free.  Each row's dependencies
            # are the next ``count`` ids of the template's flat CSR targets;
            # a dependency is an earlier row, so its end time is known.
            free = [0.0] * len(structure.resource_index)
            start_time: List[float] = []
            finish_time: List[Optional[float]] = []
            targets = iter(template.dep_targets)
            rows = zip(structure.resource_ids, durations, structure.dep_counts)
            for res, duration, count in rows:
                start_at = free[res]
                if count == 1:
                    ready_at = finish_time[next(targets)]
                    if ready_at > start_at:
                        start_at = ready_at
                elif count:
                    for dep in islice(targets, count):
                        ready_at = finish_time[dep]
                        if ready_at > start_at:
                            start_at = ready_at
                end_at = start_at + duration
                start_time.append(start_at)
                finish_time.append(end_at)
                free[res] = end_at
        else:
            start_time, finish_time = self._run_events(structure)

        # A template run reads the template's accounting layout of the rows
        # it ran; a plain engine's trace builds its own on first use.
        layout = None if template is None else template.prefix_layout(num_tasks)
        return Trace(self, range(num_tasks), start_time, finish_time, layout)

    def _run_events(self, structure: _Structure) -> Tuple[List[float], List[Optional[float]]]:
        """:meth:`run`'s event loop: the start and end time of each task, by id.

        The loop keeps one *candidate* per resource — its queue head, stamped
        with the start time it would get right now — in a single global heap,
        and lazily invalidates candidates whose resource state moved on
        (a cheaper-id task arrived, or the resource's free time advanced).
        This pops the same task the previous per-event scan over all
        resources selected — the candidate tuples order exactly like the
        scan's ``(start_at, task_id, resource)`` comparison — at O(log R)
        per event instead of O(R).
        """
        num_tasks = len(self.durations)
        durations = self.durations
        heappush, heappop = heapq.heappush, heapq.heappop
        offsets, dependents = structure.dependent_offsets, structure.dependents
        task_resource = structure.resource_ids
        num_rows = len(task_resource)
        # Rows past ``num_tasks`` (a template run on a step prefix) never
        # become ready.
        remaining_deps = structure.dep_counts[:num_tasks]
        remaining_deps += [-1] * (num_rows - num_tasks)

        # Per-resource FIFO of ready task ids (insertion order == program
        # order == ascending id, so a plain int heap suffices) and the time
        # each resource becomes free.
        num_resources = len(structure.resource_index)
        queues: List[List[int]] = [[] for _ in range(num_resources)]
        free = [0.0] * num_resources
        # Earliest time a task's dependencies are satisfied.
        ready_time = [0.0] * num_rows

        start_time = [0.0] * num_tasks
        finish_time: List[Optional[float]] = [None] * num_tasks

        for task_id in range(num_tasks):
            if remaining_deps[task_id] == 0:
                heappush(queues[task_resource[task_id]], task_id)

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
            end_at = start_at + durations[task_id]
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
            index, end = offsets[task_id], offsets[task_id + 1]
            while index < end:
                dependent = dependents[index]
                index += 1
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

        return start_time, finish_time


class GraphTemplate:
    """An immutable task graph whose durations are filled in per run.

    Built by :meth:`SimulationEngine.freeze` from an engine whose durations
    are *slot* indices ``0..k-1``, numbered in order of first use.  The
    engine's rows need not come from :meth:`SimulationEngine.add_task`: a
    builder may append to the columns directly, because freezing checks, in
    one pass, that every dependency is an earlier row and every duration an
    integer slot, raising :class:`SimulationError` naming the task.

    The columns are stored compactly: tuples of interned strings,
    ``array('i')`` int columns and CSR arrays (offsets plus one flat target
    array) for the dependencies.  Next to them the template keeps what every
    instance shares: the run structure (dependency counts, dependents and
    interned resource ids, as flat lists) and the
    :class:`~repro.sim.trace.AccountingLayout` of all its rows, and that of
    each row prefix a run has asked for (:meth:`prefix_layout`).
    :meth:`instantiate` takes one value per slot.

    :attr:`in_order` is true when, whatever the durations, every resource
    runs its tasks in id order (:func:`_runs_in_id_order`); the instances
    of such a template run in one pass instead of the event loop.

    A template never changes: a longer graph (say, more training steps) is
    a new freeze of all its rows, and a shorter one a row prefix of this
    one (the ``num_tasks`` of :meth:`instantiate`).
    """

    __slots__ = (
        "names",
        "kinds",
        "resources",
        "slots",
        "dep_offsets",
        "dep_targets",
        "steps",
        "devices",
        "blocks",
        "metadata",
        "slot_names",
        "structure",
        "layout",
        "prefix_layouts",
        "in_order",
    )

    def __init__(self, engine: SimulationEngine) -> None:
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
                    raise _unknown_dependency(name, dep)
        slot_range = range(len(first_use))
        if sorted(first_use) != list(slot_range):
            raise SimulationError("template slots must be numbered 0..k-1")
        self.names = names
        self.kinds = tuple(engine.kinds)
        self.resources = tuple(map(intern, engine.resources))
        self.metadata = tuple(engine.metadata)
        self.slot_names = tuple(map(first_use.__getitem__, slot_range))
        self.slots = array("i", map(int, engine.durations))
        self.steps = array("i", engine.steps)
        self.devices = array("i", engine.devices)
        self.blocks = array("i", engine.blocks)
        # CSR: row i's dependencies are dep_targets[dep_offsets[i]:dep_offsets[i + 1]].
        self.dep_offsets = array("i", accumulate(map(len, engine.deps), initial=0))
        self.dep_targets = array("i", chain.from_iterable(engine.deps))
        self.structure = _run_structure(engine.deps, self.resources)
        self.layout = accounting_layout(engine, range(len(names)))
        self.prefix_layouts: Dict[int, AccountingLayout] = {}
        self.in_order = _runs_in_id_order(self.structure, self.dep_offsets, self.dep_targets)

    @property
    def num_tasks(self) -> int:
        return len(self.slots)

    def prefix_layout(self, rows: int) -> AccountingLayout:
        """The accounting layout of the first ``rows`` rows.

        A row prefix's layout is cut from :attr:`layout` the first time it
        is asked for and kept in :attr:`prefix_layouts`: a template runs
        only a few prefix lengths (the step counts below the one it holds).
        """
        if rows == len(self.slots):
            return self.layout
        layout = self.prefix_layouts.get(rows)
        if layout is None:
            layout = self.prefix_layouts.setdefault(rows, self.layout.cut(rows))
        return layout

    def instantiate(
        self, values: Sequence, num_tasks: Optional[int] = None
    ) -> SimulationEngine:
        """A read-only engine over the first ``num_tasks`` rows (default all).

        Row ``i`` lasts ``values[slots[i]]``.  Every value is checked with
        :func:`check_duration` under the name of the first task using its
        slot, so an invalid one raises the ``ValueError`` that
        :meth:`SimulationEngine.add_task` raises for that task.
        """
        if len(values) != len(self.slot_names):
            raise SimulationError(
                f"template has {len(self.slot_names)} slots, got {len(values)} values"
            )
        values = [float(value) for value in values]
        for name, value in zip(self.slot_names, values):
            check_duration(name, value)
        total = len(self.slots)
        rows = total if num_tasks is None else num_tasks
        if not 0 <= rows <= total:
            raise SimulationError(f"template has {total} tasks, cannot run {rows}")
        # Slicing a whole tuple returns the tuple itself; arrays are copied.
        engine = SimulationEngine()
        engine.names, engine.kinds = self.names[:rows], self.kinds[:rows]
        engine.resources, engine.metadata = self.resources[:rows], self.metadata[:rows]
        engine.steps, engine.devices = self.steps[:rows], self.devices[:rows]
        engine.blocks = self.blocks[:rows]
        engine.durations = list(map(values.__getitem__, self.slots[:rows]))
        engine.deps = _CSRRows(self.dep_offsets, self.dep_targets, rows)
        engine._structure = self.structure
        engine._template = self
        return engine
