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

A graph that is run many times with different service times is held as a
:class:`GraphTemplate`: its durations are *slot* indices, and
:meth:`GraphTemplate.instantiate` makes a read-only engine from one value
per slot, optionally running only a prefix of the rows.  A training graph is
periodic, so a template is one step's rows (a :class:`StepBlock`, each
dependency in the same step or the previous one) tiled once per step with
offset arithmetic; :meth:`SimulationEngine.freeze` makes the one-step
template of any engine.  Everything that depends only on the graph (its
checks, run structure and accounting layout) is done when the template is
made, the checks once per block.

A template also knows whether the graph is *in order*: whether, whatever
the durations, every resource runs its tasks in id order (see
:func:`_runs_in_id_order`).  An instance of such a template is run in one
pass over its rows instead of the event heap, with bit-identical start and
end times.
"""

from __future__ import annotations

import heapq
import sys
from array import array
from collections.abc import Sequence
from itertools import accumulate, chain, islice, repeat
from operator import add, sub
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError
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


def _tiled_structure(
    offsets: array, targets: array, resources: Sequence[str], tiles: int
) -> Tuple[_Structure, array, array]:
    """The run structure and dependency CSR of ``tiles`` steps of a block's rows.

    Row ``i``'s dependencies are ``targets[offsets[i]:offsets[i + 1]]``,
    each a row of the same step, or of the previous one when below 0 (see
    :class:`StepBlock`); a plain graph is one step of itself.
    """
    stride = len(resources)
    counts = list(map(sub, offsets[1:], offsets))
    # Step 0 lacks the lag-1 dependencies.  A row's dependents are in its
    # own step and the next, except in the last step.
    carried = [0] * stride
    same: List[List[int]] = [[] for _ in counts]
    later: List[List[int]] = [[] for _ in counts]
    for row, dep in zip(chain.from_iterable(map(repeat, range(stride), counts)), targets):
        if dep >= 0:
            same[dep].append(row)
        else:
            later[stride + dep].append(stride + row)
            carried[row] += 1
    dep_counts = list(map(sub, counts, carried)) + counts * (tiles - 1)
    both = list(map(add, same, later))
    dependent_counts = list(map(len, both)) * (tiles - 1) + list(map(len, same))
    dependents = _tiled(list(chain.from_iterable(both)), 0, tiles - 1, stride)
    dependents += map(add, chain.from_iterable(same), repeat((tiles - 1) * stride))
    dep_targets = array("i", [dep for dep in targets if dep >= 0])
    dep_targets.extend(_tiled(targets, 1, tiles, stride))
    # Each value's int object is made once and shared by the offsets and
    # the dependents, which templates keep for as long as their table lives.
    ints = list(range(max(len(dep_targets), tiles * stride) + 1))
    resource_index: Dict[str, int] = {}
    resource_ids = [
        resource_index.setdefault(resource, len(resource_index)) for resource in resources
    ]
    structure = _Structure(
        dep_counts,
        list(map(ints.__getitem__, accumulate(dependent_counts, initial=0))),
        list(map(ints.__getitem__, dependents)),
        resource_ids * tiles,
        resource_index,
    )
    return structure, array("i", list(accumulate(dep_counts, initial=0))), dep_targets


def _tiled(values: Sequence[int], first: int, stop: int, stride: int) -> List[int]:
    """``values`` once per step ``first..stop-1``, step ``k``'s each plus ``k * stride``."""
    progressions = [range(value + first * stride, value + stop * stride, stride) for value in values]
    return list(chain.from_iterable(zip(*progressions)))


def _runs_in_id_order(
    structure: _Structure, dep_offsets: array, dep_targets: array, rows: int
) -> bool:
    """True when no task among the first ``rows`` can start before a lower-id task on its resource.

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

    Of a graph tiled from a :class:`StepBlock` of ``R`` rows, the first
    three steps decide.  Say ``d``, a dependency of ``a`` on another
    resource, is not in A(b).  Each dependency ``x`` of ``b - R`` has
    ``x + R`` among ``b``'s, and ``x`` is a G'-ancestor of ``x + R`` (its
    resource's chain), so A(b - R) lies in A(b): ``b`` may move back a step
    while it stays after ``a``.  Shifting paths forward gives A(b - R) + R
    within A(b), so all three may move back a step while ``a`` keeps its
    edge to ``d``: down to step 0 for a lag-0 edge, step 1 for a lag-1 one.
    ``b`` is then at most one step after ``a``, in step 2 at most.

    Sets are Python-int bitsets over row ids.  A row's closure (itself with
    its G'-ancestors) is kept only until its last dependent has read it,
    and that of the last row on each resource until the next one.
    """
    resource_ids = structure.resource_ids
    offsets = structure.dependent_offsets
    unread = [end - begin for begin, end in zip(offsets, offsets[1 : rows + 1])]
    closures = [0] * rows
    last = [0] * len(structure.resource_index)  # closure of each resource's latest row
    foreign = [0] * len(structure.resource_index)  # its rows' deps on other resources
    bit = 1
    for row, (res, begin, end) in enumerate(
        zip(resource_ids[:rows], dep_offsets, dep_offsets[1:])
    ):
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
            structure = self._structure = _tiled_structure(
                array("i", accumulate(map(len, self.deps), initial=0)),
                array("i", chain.from_iterable(self.deps)),
                self.resources,
                1,
            )[0]
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


class StepBlock(NamedTuple):
    """One step of a periodic task graph: the rows a :class:`GraphTemplate` tiles.

    Row ``i`` of step ``k`` (rows ``k * R + i`` of the template, for a
    block of ``R`` rows) is named ``str(k).join(names[i])``, is labelled
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
    """An immutable task graph whose durations are filled in per run.

    A template is its :class:`StepBlock` tiled ``tiles`` times, one step
    after another (see the block for the rules); each column is made at C
    speed from the block's, by repetition or by adding ``k * R`` to step
    ``k``'s row ids, and the block's checks ran once, when it was made.
    :meth:`SimulationEngine.freeze` is the one-tile case: it makes the
    block of an engine's rows, whose durations are slot indices.

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
    of such a template run in one pass instead of the event loop.  Only the
    first three steps are checked: they decide for any number of steps.

    A template never changes: a longer graph (more training steps) is a
    new tiling of :attr:`block`, and a shorter one a row prefix of this
    one (the ``num_tasks`` of :meth:`instantiate`).
    """

    __slots__ = (
        "block",
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

    def __init__(self, block: StepBlock, tiles: int = 1) -> None:
        if tiles < 1:
            raise SimulationError(f"a template tiles its block at least once, not {tiles} times")
        stride = len(block.slots)
        self.block = block
        self.names = tuple(
            map(
                sys.intern,
                chain.from_iterable(map(str(step).join, block.names) for step in range(tiles)),
            )
        )
        self.kinds = block.kinds * tiles
        self.resources = block.resources * tiles
        self.metadata = block.metadata * tiles
        self.slot_names = block.slot_names
        self.slots = block.slots * tiles
        self.steps = array("i", _tiled(block.steps, 0, tiles, 1))
        self.devices = block.devices * tiles
        self.blocks = block.blocks * tiles
        # CSR: row i's dependencies are dep_targets[dep_offsets[i]:dep_offsets[i + 1]].
        self.structure, self.dep_offsets, self.dep_targets = _tiled_structure(
            block.dep_offsets, block.dep_targets, block.resources, tiles
        )
        self.layout = _tiled_layout(accounting_layout(block, range(stride)), tiles, stride)
        self.prefix_layouts: Dict[int, AccountingLayout] = {}
        # The first three steps decide (see _runs_in_id_order).
        self.in_order = _runs_in_id_order(
            self.structure, self.dep_offsets, self.dep_targets, min(tiles, 3) * stride
        )

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
        if not (isinstance(values, array) and values.typecode == "d"):
            values = [float(value) for value in values]
        for name, value in zip(self.slot_names, values):
            check_duration(name, value)
        total = len(self.slots)
        rows = total if num_tasks is None else num_tasks
        if not 0 <= rows <= total:
            raise SimulationError(f"template has {total} tasks, cannot run {rows}")
        # Every step lasts what the block's rows last, so the durations are
        # one step's, repeated, then the first rows of a partial step.
        step_slots = self.block.slots
        whole, part = divmod(rows, len(step_slots)) if step_slots else (0, 0)
        step = list(map(values.__getitem__, step_slots))
        # Slicing a whole tuple returns the tuple itself; an array is
        # copied, so it is sliced only for a row prefix.
        engine = SimulationEngine()
        engine.names, engine.kinds = self.names[:rows], self.kinds[:rows]
        engine.resources, engine.metadata = self.resources[:rows], self.metadata[:rows]
        if rows == total:
            engine.steps, engine.devices, engine.blocks = self.steps, self.devices, self.blocks
        else:
            engine.steps, engine.devices = self.steps[:rows], self.devices[:rows]
            engine.blocks = self.blocks[:rows]
        engine.durations = step * whole + step[:part]
        engine.deps = _CSRRows(self.dep_offsets, self.dep_targets, rows)
        engine._structure = self.structure
        engine._template = self
        return engine


def _tiled_layout(layout: AccountingLayout, tiles: int, stride: int) -> AccountingLayout:
    """The layout of ``tiles`` steps of a block whose own layout is ``layout``.

    Step ``k``'s rows are the block's plus ``k * stride``, labelled the
    block's label plus ``k``; each bucket holds the block's rows of every step.
    """
    labels: Dict[int, List[int]] = {}
    for label, rows in layout.steps:
        count = len(rows)
        every = _tiled(rows, 0, tiles, stride)
        for tile in range(tiles):
            labels.setdefault(label + tile, []).extend(every[tile * count : (tile + 1) * count])
    return AccountingLayout(
        tuple((label, array("i", rows)) for label, rows in sorted(labels.items())),
        tuple(
            (device, category, array("i", _tiled(rows, 0, tiles, stride)))
            for device, category, rows in layout.buckets
        ),
    )
