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
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import SimTask, TaskKind, check_duration
from repro.sim.trace import Trace


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
        task_id = len(self.names)
        deps_tuple: Tuple[int, ...] = tuple(deps)
        for dep in deps_tuple:
            if dep < 0 or dep >= task_id:
                raise SimulationError(
                    f"task {name!r} depends on unknown task id {dep} "
                    f"(only earlier tasks may be dependencies)"
                )
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
        return task_id

    @property
    def num_tasks(self) -> int:
        return len(self.names)

    def task(self, task_id: int) -> SimTask:
        """The task in row ``task_id`` (negative ids count from the end)."""
        task_id = range(len(self.names))[task_id]
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

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> Trace:
        """Execute the task graph and return the trace.

        Because dependencies may only point to earlier tasks, the graph is
        acyclic by construction; the engine is therefore a deterministic list
        scheduler.

        The loop keeps one *candidate* per resource — its queue head, stamped
        with the start time it would get right now — in a single global heap,
        and lazily invalidates candidates whose resource state moved on
        (a cheaper-id task arrived, or the resource's free time advanced).
        This pops the same task the previous per-event scan over all
        resources selected — the candidate tuples order exactly like the
        scan's ``(start_at, task_id, resource)`` comparison — at O(log R)
        per event instead of O(R).
        """
        num_tasks = len(self.names)
        durations = self.durations
        heappush, heappop = heapq.heappush, heapq.heappop

        # Graph structure, flattened once: interned resource indices and
        # the dependents adjacency.
        remaining_deps = [len(deps) for deps in self.deps]
        dependents: List[List[int]] = [[] for _ in range(num_tasks)]
        for task_id, deps in enumerate(self.deps):
            for dep in deps:
                dependents[dep].append(task_id)
        resource_index: Dict[str, int] = {}
        task_resource = [
            resource_index.setdefault(resource, len(resource_index))
            for resource in self.resources
        ]

        # Per-resource FIFO of ready task ids (insertion order == program
        # order == ascending id, so a plain int heap suffices) and the time
        # each resource becomes free.
        queues: List[List[int]] = [[] for _ in range(len(resource_index))]
        free = [0.0] * len(resource_index)
        # Earliest time a task's dependencies are satisfied.
        ready_time = [0.0] * num_tasks

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
            for dependent in dependents[task_id]:
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

        return Trace(self, range(num_tasks), start_time, finish_time)
