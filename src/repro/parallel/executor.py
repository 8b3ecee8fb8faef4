"""Lowering schedule plans onto the discrete-event simulator.

The :class:`ScheduleExecutor` turns a :class:`~repro.parallel.plan.SchedulePlan`
into a task graph (data loads, teacher forwards, student forwards/backwards,
activation transfers, gradient all-reduces, weight updates, and — for
non-decoupled plans — step barriers), runs it with the
:class:`~repro.sim.engine.SimulationEngine`, and converts the resulting trace
into the quantities the paper reports:

* per-epoch elapsed time (Table II),
* per-step time and breakdowns (Fig. 2),
* per-rank peak memory (Fig. 7).

Execution is two steps.  :meth:`ScheduleExecutor.lower` does everything the
step count does not change: a plan kind contributes only its *phases*, each
a graph key plus a function from slot key to duration, which lowering turns
into the key and the slot values; one rule gives every kind's peak
memory.  :meth:`ScheduleExecutor.execute` then runs each phase as one
multi-step simulation from which the steady-state step time is extracted.
Pipeline plans (TR and its variants) and the LS baseline are one phase
each; the DP baseline trains blocks one after another, so it is one phase
per block, each run for :data:`DATA_PARALLEL_STEPS` steps whatever the step
count is.  The phases' step times, epoch times and breakdowns add up.
:meth:`ScheduleExecutor.execute` takes a plan, which it lowers first, or
a lowered one; a :class:`~repro.core.session.Session` keeps each plan's
lowering and executes it for every step count.

Task graphs depend only on a plan's shape (a phase's key), not on the batch
size, server or dataset, so each shape's graph is built once into a
:class:`~repro.sim.engine.GraphTemplate` held by :class:`GraphTemplates`; a
run fills in the durations only.
"""

from __future__ import annotations

import threading
from array import array
from collections.abc import Hashable
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.data.dataset import DatasetSpec
from repro.data.loader import DataLoadModel
from repro.errors import ScheduleError
from repro.fold import left_sum
from repro.hardware.cost_model import CostModel
from repro.hardware.server import ServerSpec
from repro.models.layers import BYTES_PER_ELEMENT
from repro.models.pairs import DistillationPair
from repro.parallel.plan import SchedulePlan, by_device, jsonable, plan_from_dict
from repro.sim.engine import GraphTemplate, SimulationEngine
from repro.sim.events import TaskKind
from repro.sim.metrics import compute_breakdown
from repro.sim.resources import collective, device_compute, device_link, host_loader
from repro.sim.trace import Trace

#: Default number of training steps simulated to reach steady state.
DEFAULT_SIMULATED_STEPS = 10
#: Warm-up steps excluded from the steady-state step-time measurement.
WARMUP_STEPS = 2
#: Fewest steps a simulation may run: the warm-up plus two measured steps.
#: Every entry point that takes ``simulated_steps`` checks against it.
MIN_SIMULATED_STEPS = WARMUP_STEPS + 2
#: Steps simulated per block of a DP plan, whatever ``simulated_steps`` is.
DATA_PARALLEL_STEPS = MIN_SIMULATED_STEPS


#: Top-level fields of :meth:`ExecutionResult.to_dict`, in canonical order.
RECORD_FIELDS = (
    "batch_size",
    "breakdown_s",
    "epoch_time_s",
    "max_memory_gb",
    "metadata",
    "num_devices",
    "peak_memory_bytes",
    "peak_memory_gb",
    "plan",
    "plan_kind",
    "step_time_s",
    "steps_per_epoch",
    "strategy",
)
_RECORD_KEYS = frozenset(RECORD_FIELDS)


@dataclass
class ExecutionResult:
    """Measured outcome of executing one plan on the simulated server.

    ``record`` holds the store document the result was hydrated from (see
    :meth:`from_dict`) or written to the store as; :meth:`to_dict` then
    returns it as is instead of serialising the result again.  It takes
    no part in equality.
    """

    plan: SchedulePlan
    epoch_time: float
    step_time: float
    steps_per_epoch: int
    breakdown: Dict[int, Dict[str, float]]
    peak_memory_bytes: Dict[int, float]
    trace: Optional[Trace] = None
    metadata: dict = field(default_factory=dict)
    record: Optional[dict] = field(default=None, compare=False, repr=False)

    @property
    def strategy(self) -> str:
        return self.plan.strategy

    def max_memory_gb(self) -> float:
        """Largest per-rank allocation in GB (the paper's Fig. 7 'Max.' bar)."""
        if not self.peak_memory_bytes:
            return 0.0
        return max(self.peak_memory_bytes.values()) / 1e9

    def describe(self) -> str:
        return (
            f"{self.strategy}: epoch={self.epoch_time:.2f}s "
            f"step={self.step_time * 1e3:.2f}ms "
            f"max_mem={self.max_memory_gb():.2f}GB"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable summary (the trace is intentionally omitted).

        Carries the full plan and raw peak-memory bytes so
        :meth:`from_dict` can rebuild an equivalent result — this is the
        record shape the persistent experiment store holds.  Keys come in
        canonical order (sorted, device keys sorted as strings), so the
        dict dumps to the same bytes as the store's canonical JSON.  When
        ``record`` is set it is returned as is: treat it as read-only.
        """
        if self.record is not None:
            return self.record
        peak_memory = by_device(self.peak_memory_bytes)
        return {
            "batch_size": self.plan.batch_size,
            "breakdown_s": {
                device: {name: categories[name] for name in sorted(categories)}
                for device, categories in by_device(self.breakdown).items()
            },
            "epoch_time_s": self.epoch_time,
            "max_memory_gb": self.max_memory_gb(),
            "metadata": jsonable(self.metadata),
            "num_devices": self.plan.num_devices,
            "peak_memory_bytes": peak_memory,
            "peak_memory_gb": {
                device: bytes_ / 1e9 for device, bytes_ in peak_memory.items()
            },
            "plan": self.plan.to_dict(),
            "plan_kind": self.plan.kind,
            "step_time_s": self.step_time,
            "steps_per_epoch": self.steps_per_epoch,
            "strategy": self.strategy,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutionResult":
        """Rebuild a result from :meth:`to_dict` (store hydration path).

        The trace is gone (it was never serialised), but every quantity the
        analysis layer consumes — epoch/step time, breakdowns, peak memory,
        the validated plan — round-trips exactly.  ``payload`` becomes the
        result's ``record`` and :meth:`to_dict` returns it unchanged, so it
        must hold exactly the fields :meth:`to_dict` emits, and the fields
        derived from the plan and the peak memory must agree with them.
        """
        if not isinstance(payload, dict):
            raise TypeError(f"result record is a {type(payload).__name__}, not an object")
        if payload.keys() != _RECORD_KEYS:
            missing = [name for name in RECORD_FIELDS if name not in payload]
            unexpected = sorted(set(payload) - _RECORD_KEYS)
            raise ValueError(
                f"result record fields differ: missing {missing}, unexpected {unexpected}"
            )
        result = cls(
            plan=plan_from_dict(payload["plan"]),
            epoch_time=payload["epoch_time_s"],
            step_time=payload["step_time_s"],
            steps_per_epoch=payload["steps_per_epoch"],
            breakdown={
                int(device): dict(categories)
                for device, categories in payload["breakdown_s"].items()
            },
            peak_memory_bytes={
                int(device): bytes_
                for device, bytes_ in payload["peak_memory_bytes"].items()
            },
            trace=None,
            metadata=payload["metadata"],
            record=payload,
        )
        plan = result.plan
        derived = {
            "batch_size": plan.batch_size,
            "max_memory_gb": result.max_memory_gb(),
            "num_devices": plan.num_devices,
            "peak_memory_gb": {
                device: bytes_ / 1e9
                for device, bytes_ in payload["peak_memory_bytes"].items()
            },
            "plan_kind": plan.kind,
            "strategy": plan.strategy,
        }
        for name, value in derived.items():
            if payload[name] != value:
                raise ValueError(
                    f"result record {name} {payload[name]!r} disagrees with "
                    f"the value its plan and peak memory give ({value!r})"
                )
        return result


class Phase(NamedTuple):
    """One simulation of a plan: a graph template key and each slot's duration."""

    key: Hashable
    duration: Callable[[Hashable], float]


class LoweredPlan(NamedTuple):
    """A plan lowered onto graph templates: all of its execution but the simulation.

    ``keys`` holds each phase's template key, in run order, and ``values``
    every phase's slot values, phase after phase, each phase's in the order
    of its template's slot keys; ``peak_memory_bytes`` holds the peak
    allocation of each device, by id.  None of it depends on the step
    count, so one lowered plan serves runs of any length.  A session keeps
    one per (strategy, cell), so the floats are ``array('d')`` items, 8
    bytes each: no float objects, no closure and nothing of the executor
    that made it.
    """

    plan: SchedulePlan
    steps_per_epoch: int
    keys: Tuple[Hashable, ...]
    values: array
    peak_memory_bytes: array


def _phase_steps(plan: SchedulePlan, steps: int) -> int:
    """The steps each phase of ``plan`` runs: a DP block always runs :data:`DATA_PARALLEL_STEPS`."""
    return DATA_PARALLEL_STEPS if plan.kind == "data_parallel" else steps


class TemplateEntry(NamedTuple):
    """One plan shape's graph: built for ``steps`` steps, slots named by key."""

    steps: int
    template: GraphTemplate
    slot_keys: Tuple[Hashable, ...]


class GraphTemplates:
    """Thread-safe table of graph templates, one per plan shape.

    A key holds everything that decides a graph's rows, names and
    dependencies but not the step count: the graph for ``k`` steps is the
    first rows of the graph for more steps, so one template per key serves
    every step count.  A longer step count extends the held template by the
    missing steps; no row is ever built twice.  ``builds`` counts the keys
    built from scratch and ``rows_built`` every row any builder added.
    """

    def __init__(self) -> None:
        self._builders: Dict[Hashable, _GraphBuilder] = {}
        self._lock = threading.Lock()
        self.builds = 0
        self.rows_built = 0

    def get(self, key: Hashable, steps: int) -> Tuple[TemplateEntry, int]:
        """The entry for ``key`` covering ``steps`` steps, and its rows for ``steps``.

        On a miss the entry is built from the key alone (by the builder of
        its plan kind, ``key[0]``); when the held one has fewer steps, its
        builder resumes and adds the missing ones.
        """
        with self._lock:
            builder = self._builders.get(key)
            if builder is None:
                builder = self._builders[key] = _GraphBuilder(key)
                self.builds += 1
            entry = builder.held
            if entry is None or entry.steps < steps:
                held = builder.rows
                try:
                    entry = builder.grow(steps)
                except BaseException:
                    del self._builders[key]  # a half-grown builder is not kept
                    raise
                self.rows_built += builder.rows - held
        return entry, entry.template.num_tasks // entry.steps * steps

    def shapes(self) -> Dict[Hashable, int]:
        """The steps each held template was built for, by key."""
        with self._lock:
            return {key: builder.held.steps for key, builder in self._builders.items()}

    def __len__(self) -> int:
        return len(self._builders)

    @property
    def num_tasks(self) -> int:
        """Rows held over every template."""
        with self._lock:
            return left_sum(builder.rows for builder in self._builders.values())

    def clear(self) -> None:
        with self._lock:
            self._builders.clear()


class _GraphBuilder:
    """Adds tasks whose durations are slots, numbered in order of first use.

    Rows go straight into the columns of ``engine``, numbered on from the
    rows already frozen; :meth:`entry` turns them into the template (or
    extends the held one with them), which checks every dependency and slot
    once, in one pass, and starts an empty ``engine`` for the next rows.

    The builder of the key's plan kind (``key[0]``) runs as a generator
    that adds one training step per resumption, so :meth:`grow` can add
    steps to a template long after it was frozen.
    """

    def __init__(self, key: Hashable) -> None:
        self.engine = SimulationEngine()
        self.slots: Dict[Hashable, int] = {}
        self.rows = 0  # rows frozen so far
        self.held: Optional[TemplateEntry] = None
        self._steps = _GRAPH_BUILDERS[key[0]](key, self)

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
        task_id = self.rows + len(engine.names)
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

    def entry(self, steps: int) -> TemplateEntry:
        """The template of every row added so far, held as ``steps`` steps."""
        engine, self.engine = self.engine, SimulationEngine()
        held = self.held
        template = engine.freeze() if held is None else held.template.extended(engine)
        self.rows = template.num_tasks
        self.held = TemplateEntry(steps, template, tuple(self.slots))
        return self.held

    def grow(self, steps: int) -> TemplateEntry:
        """Resume the plan kind's builder until the template has ``steps`` steps."""
        held = 0 if self.held is None else self.held.steps
        for _ in range(steps - held):
            next(self._steps)
        return self.entry(steps)


def _pipeline_graph(key: Hashable, graph: _GraphBuilder) -> Iterator[None]:
    """Pipeline task graph, one step per resumption; slots are ``(stage_id, duration name)``."""
    _, decoupled_update, stages = key
    previous_step_updates: List[int] = []

    for step in count():
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
        yield


def _layerwise_graph(key: Hashable, graph: _GraphBuilder) -> Iterator[None]:
    """LS task graph, one step per resumption; slots are ``(duration name, block)``."""
    _, device_blocks = key
    for step in count():
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
        yield


def _data_parallel_graph(key: Hashable, graph: _GraphBuilder) -> Iterator[None]:
    """One DP block's task graph, one step per resumption; slots are duration names."""
    _, num_devices, block_id = key
    previous_step_updates: List[int] = []
    for step in count():
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
        yield


#: Each plan kind's graph builder: a generator adding one step per resumption.
_GRAPH_BUILDERS: Dict[str, Callable[[Hashable, _GraphBuilder], Iterator[None]]] = {
    "pipeline": _pipeline_graph,
    "layerwise": _layerwise_graph,
    "data_parallel": _data_parallel_graph,
}


class ScheduleExecutor:
    """Executes schedule plans for one (pair, server, dataset) combination."""

    def __init__(
        self,
        pair: DistillationPair,
        server: ServerSpec,
        dataset: DatasetSpec,
        simulated_steps: int = DEFAULT_SIMULATED_STEPS,
        templates: Optional[GraphTemplates] = None,
    ) -> None:
        if simulated_steps < MIN_SIMULATED_STEPS:
            raise ScheduleError(
                f"simulated_steps must be at least {MIN_SIMULATED_STEPS}, got {simulated_steps}"
            )
        self.pair = pair
        self.server = server
        self.dataset = dataset
        self.simulated_steps = simulated_steps
        self.cost_model: CostModel = server.cost_model()
        self.loader = DataLoadModel(dataset=dataset, host=server.host)
        #: Graph templates by plan shape; a Session shares one table
        #: between all the executors it builds.
        self.templates = templates if templates is not None else GraphTemplates()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def lower(self, plan: SchedulePlan) -> LoweredPlan:
        """Everything of ``plan``'s execution that the step count does not change.

        That is each phase's graph-template key and slot values (see
        :meth:`_phases`), the steps per epoch and the peak memory per
        device.  Slot values come in the order of the template's slot keys,
        so lowering looks each phase's template up, building it for this
        executor's step count when the table does not hold it yet.
        """
        if plan.num_blocks != self.pair.num_blocks:
            raise ScheduleError(
                f"plan covers {plan.num_blocks} blocks but the pair has {self.pair.num_blocks}"
            )
        if plan.num_devices != self.server.num_devices:
            raise ScheduleError(
                f"plan targets {plan.num_devices} devices but the server has "
                f"{self.server.num_devices}"
            )
        steps = _phase_steps(plan, self.simulated_steps)
        keys, values = [], []
        for key, duration in self._phases(plan):
            graph, _ = self.templates.get(key, steps)
            keys.append(key)
            values += map(duration, graph.slot_keys)
        return LoweredPlan(
            plan=plan,
            steps_per_epoch=self.dataset.steps_per_epoch(plan.batch_size),
            keys=tuple(keys),
            values=array("d", values),
            peak_memory_bytes=self._peak_memory(plan),
        )

    def execute(self, plan: Union[SchedulePlan, LoweredPlan]) -> ExecutionResult:
        """Execute a plan for ``simulated_steps`` steps and return its measured result.

        ``plan`` is a schedule plan, lowered afresh here, or a plan already
        lowered by :meth:`lower` on any executor of the same pair, server,
        dataset and template table, whatever its step count (a
        :class:`~repro.core.session.Session` keeps one per plan).  Every
        phase is one simulation of its graph template (a DP block runs
        :data:`DATA_PARALLEL_STEPS` steps, whatever ``simulated_steps`` is);
        the step times, epoch times and epoch breakdowns of the phases add
        up, and the result keeps the last phase's trace.
        """
        lowered = plan if isinstance(plan, LoweredPlan) else self.lower(plan)
        plan = lowered.plan
        steps = _phase_steps(plan, self.simulated_steps)
        steps_per_epoch = lowered.steps_per_epoch
        step_time = epoch_time = 0.0
        step_times: List[float] = []
        breakdown: Dict[int, Dict[str, float]] = {}
        trace: Optional[Trace] = None
        end = 0
        for key in lowered.keys:
            graph, rows = self.templates.get(key, steps)
            start, end = end, end + len(graph.slot_keys)
            trace = graph.template.instantiate(lowered.values[start:end], rows).run()
            phase_step_time = trace.steady_state_step_time(skip_first=WARMUP_STEPS)
            phase_epoch_time = phase_step_time * steps_per_epoch
            step_times.append(phase_step_time)
            step_time += phase_step_time
            epoch_time += phase_epoch_time
            scaled = self._scaled_breakdown(trace, phase_epoch_time, steps_per_epoch, steps)
            if not breakdown:
                breakdown = scaled
            else:
                for device, categories in scaled.items():
                    totals = breakdown[device]
                    for category, seconds in categories.items():
                        totals[category] += seconds
        if plan.kind == "data_parallel":
            metadata = {
                "simulated_steps_per_block": steps,
                "per_block_step_times": tuple(step_times),
            }
        else:
            metadata = {"simulated_steps": steps}
        return ExecutionResult(
            plan=plan,
            epoch_time=epoch_time,
            step_time=step_time,
            steps_per_epoch=steps_per_epoch,
            breakdown=breakdown,
            peak_memory_bytes=dict(enumerate(lowered.peak_memory_bytes)),
            trace=trace,
            metadata=metadata,
        )

    # ------------------------------------------------------------------ #
    # Shared duration helpers
    # ------------------------------------------------------------------ #
    def _teacher_time(self, block_ids, batch: int) -> float:
        return left_sum(
            self.cost_model.block_forward_time(self.pair.teacher.block(block_id), batch)
            for block_id in block_ids
        )

    def _student_forward_time(self, block_ids, batch: int) -> float:
        rounds = self.pair.student_rounds_per_step
        return rounds * left_sum(
            self.cost_model.block_forward_time(self.pair.student.block(block_id), batch)
            for block_id in block_ids
        )

    def _student_backward_time(self, block_ids, batch: int) -> float:
        rounds = self.pair.student_rounds_per_step
        return rounds * left_sum(
            self.cost_model.block_backward_time(self.pair.student.block(block_id), batch)
            for block_id in block_ids
        )

    def _update_time(self, block_ids) -> float:
        return left_sum(
            self.cost_model.weight_update_time(self.pair.student.block(block_id))
            for block_id in block_ids
        )

    def _grad_bytes(self, block_ids) -> float:
        return float(
            left_sum(self.pair.student.block(block_id).params for block_id in block_ids)
            * BYTES_PER_ELEMENT
        )

    def _boundary_bytes(self, block_id: int, batch: int) -> float:
        return float(self.pair.teacher.block(block_id).output_bytes_per_sample * batch)

    # ------------------------------------------------------------------ #
    # Phases: what each plan kind simulates
    # ------------------------------------------------------------------ #
    def _phases(self, plan: SchedulePlan) -> List[Phase]:
        """The plan's phases, in the order :meth:`execute` runs them."""
        if plan.kind == "pipeline":
            return [self._pipeline_phase(plan)]
        if plan.kind == "layerwise":
            return [self._layerwise_phase(plan)]
        return self._data_parallel_phases(plan)

    def _pipeline_phase(self, plan: SchedulePlan) -> Phase:
        """One pipeline plan; slots are ``(stage_id, duration name)``."""
        # Per-stage durations (identical for every replica in a stage).
        durations: Dict[int, Dict[str, float]] = {}
        for stage in plan.stages:
            micro_batch = stage.per_device_batch(plan.batch_size)
            durations[stage.stage_id] = {
                "teacher": self._teacher_time(stage.block_ids, micro_batch),
                "student_fwd": self._student_forward_time(stage.block_ids, micro_batch),
                "student_bwd": self._student_backward_time(stage.block_ids, micro_batch),
                "update": self._update_time(stage.block_ids),
                "allreduce": (
                    self.server.interconnect.allreduce_time(
                        self._grad_bytes(stage.block_ids), stage.num_devices
                    )
                    if stage.num_devices > 1
                    else 0.0
                ),
                "load": self.loader.batch_load_time(micro_batch, concurrent_loaders=1),
                "recv": (
                    self.server.interconnect.transfer_time(
                        self._boundary_bytes(stage.block_ids[0] - 1, micro_batch)
                    )
                    if stage.block_ids[0] > 0
                    else 0.0
                ),
            }

        # The all-reduce task exists only when its time is positive, so that
        # test is part of the shape.
        key = (
            "pipeline",
            plan.decoupled_update,
            tuple(
                (
                    stage.stage_id,
                    tuple(stage.device_ids),
                    stage.block_ids[0],
                    stage.num_devices > 1 and durations[stage.stage_id]["allreduce"] > 0.0,
                )
                for stage in plan.stages
            ),
        )
        return Phase(key, lambda slot: durations[slot[0]][slot[1]])

    def _layerwise_phase(self, plan: SchedulePlan) -> Phase:
        """One LS plan; slots are ``(duration name, block)``."""
        assert plan.device_blocks is not None
        batch = plan.batch_size
        load_time = self.loader.batch_load_time(batch, concurrent_loaders=1)
        durations = {
            "load": lambda block: load_time,
            "teacher": lambda block: self._teacher_time(tuple(range(block + 1)), batch),
            "student_fwd": lambda block: self._student_forward_time((block,), batch),
            "student_bwd": lambda block: self._student_backward_time((block,), batch),
            "update": lambda block: self._update_time((block,)),
        }
        key = (
            "layerwise",
            tuple(
                (device, tuple(sorted(block_ids)))
                for device, block_ids in sorted(plan.device_blocks.items())
            ),
        )
        return Phase(key, lambda slot: durations[slot[0]](slot[1]))

    def _data_parallel_phases(self, plan: SchedulePlan) -> List[Phase]:
        """One phase per DP block, trained on every device; slots are duration names."""
        micro_batch = plan.per_device_batch()[0]
        load_time = self.loader.batch_load_time(micro_batch, concurrent_loaders=1)
        phases = []
        for block_id in range(plan.num_blocks):
            durations = {
                "load": load_time,
                "teacher": self._teacher_time(tuple(range(block_id + 1)), micro_batch),
                "student_fwd": self._student_forward_time((block_id,), micro_batch),
                "student_bwd": self._student_backward_time((block_id,), micro_batch),
                "update": self._update_time((block_id,)),
                "allreduce": self.server.interconnect.allreduce_time(
                    self._grad_bytes((block_id,)), plan.num_devices
                ),
            }
            key = ("data_parallel", plan.num_devices, block_id)
            phases.append(Phase(key, durations.__getitem__))
        return phases

    # ------------------------------------------------------------------ #
    # Breakdown and memory helpers
    # ------------------------------------------------------------------ #
    def _scaled_breakdown(
        self,
        trace: Trace,
        epoch_time: float,
        steps_per_epoch: int,
        simulated_steps: int,
    ) -> Dict[int, Dict[str, float]]:
        """Scale a simulated-window breakdown to one epoch."""
        raw = compute_breakdown(trace, self.server.num_devices)
        scale = steps_per_epoch / float(simulated_steps)
        scaled: Dict[int, Dict[str, float]] = {}
        for device, categories in raw.items():
            scaled[device] = {}
            busy = 0.0
            for category in ("teacher_exec", "student_exec", "comm", "data_load"):
                scaled[device][category] = categories[category] * scale
                if category != "data_load":
                    busy += scaled[device][category]
            data_wait = min(scaled[device]["data_load"], max(0.0, epoch_time - busy))
            scaled[device]["data_load"] = data_wait
            scaled[device]["idle"] = max(0.0, epoch_time - busy - data_wait)
        return scaled

    def _peak_memory(self, plan: SchedulePlan) -> array:
        """Peak allocation of each device, by id; an idle device holds the framework baseline.

        Each plan kind lists what its devices hold: ``(devices, executed
        teacher blocks, trained student blocks, per-device batch)``.  A
        pipeline stage's devices run its blocks at the stage's micro-batch;
        an LS device runs the teacher up to its last block at the full
        batch; DP devices run every block in turn, so they peak at the
        largest block's footprint.
        """
        if plan.kind == "pipeline":
            assignments = [
                (
                    stage.device_ids,
                    stage.block_ids,
                    stage.block_ids,
                    stage.per_device_batch(plan.batch_size),
                )
                for stage in plan.stages
            ]
        elif plan.kind == "layerwise":
            assert plan.device_blocks is not None
            assignments = [
                ((device,), range(max(block_ids) + 1), block_ids, plan.batch_size)
                for device, block_ids in plan.device_blocks.items()
            ]
        else:
            devices = range(plan.num_devices)
            micro_batch = plan.per_device_batch()[0]
            assignments = [
                (devices, range(block_id + 1), (block_id,), micro_batch)
                for block_id in range(plan.num_blocks)
            ]
        memory_model = self.server.memory_model
        teacher, student = self.pair.teacher, self.pair.student
        peak: Dict[int, float] = {}
        for devices, teacher_ids, student_ids, batch in assignments:
            peak_bytes = memory_model.device_peak_bytes(
                teacher_blocks=[teacher.block(block_id) for block_id in teacher_ids],
                student_blocks=[student.block(block_id) for block_id in student_ids],
                batch=batch,
            )
            for device in devices:
                peak[device] = max(peak.get(device, 0.0), peak_bytes)
        baseline = memory_model.framework_baseline_bytes
        return array("d", [peak.get(device, baseline) for device in range(plan.num_devices)])
