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
into the key and the slot values; one rule, read from the stages each
phase lists, gives every kind's peak memory.
:meth:`ScheduleExecutor.execute` then runs each phase as one multi-step
simulation from which the steady-state step time is extracted.  Pipeline
plans (TR and its variants) and the LS baseline are one phase each; the
DP baseline trains blocks one after another, so it is one phase per
block, a one-stage pipeline without decoupled updates, each run for
:data:`DATA_PARALLEL_STEPS` steps whatever the step count is.  So two
graph builders serve the three plan kinds: the pipeline's and LS's.  The
phases' step times, epoch times and breakdowns add up.
:meth:`ScheduleExecutor.execute` takes a plan, which it lowers first, or
a lowered one; a :class:`~repro.core.session.Session` keeps each plan's
lowering and executes it for every step count.

Task graphs depend only on a plan's shape (a phase's key), not on the batch
size, server or dataset, and repeat every training step.  So each shape's
builder makes one step of its graph, once, and :class:`GraphTemplates` holds
one :class:`~repro.sim.engine.GraphTemplate` per shape: that step and what a
run of it needs.  A run of any step count reads the one step with step
offsets, and fills in the durations only.
"""

from __future__ import annotations

import threading
from array import array
from collections.abc import Hashable
from dataclasses import dataclass, field
from functools import cached_property
from sys import intern
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.data.dataset import DatasetSpec
from repro.data.loader import DataLoadModel
from repro.errors import ScheduleError
from repro.fold import left_sum
from repro.hardware.cost_model import CostModel
from repro.hardware.server import ServerSpec
from repro.memo import Memo
from repro.models.layers import BYTES_PER_ELEMENT
from repro.models.pairs import DistillationPair
from repro.parallel.plan import (
    SchedulePlan,
    by_device,
    copied,
    copied_plan,
    jsonable,
    plan_from_dict,
)
from repro.sim.engine import GraphTemplate, StepBlock, step_block
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
#: Most steps a simulation may run, checked wherever the minimum is.  A
#: schedule reaches its steady state within a few steps, while the work and
#: the run's trace grow with the step count: on CPython 3.11, 1,000 steps of
#: a 4-GPU TR+DPU+AHD plan take about 0.007 s and 0.8 MB, 10,000 take
#: 0.05 s and 8 MB.
MAX_SIMULATED_STEPS = 1000
#: Steps simulated per block of a DP plan, whatever ``simulated_steps`` is.
DATA_PARALLEL_STEPS = MIN_SIMULATED_STEPS
#: Most shapes a :class:`GraphTemplates` table holds, least recently used
#: dropped first: over twice the 56 shapes of the whole plan grid.
HELD_TEMPLATE_SHAPES = 128


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
#: The fields of :attr:`ExecutionResult.document` built from the peak memory alone.
PEAK_MEMORY_FIELDS = ("max_memory_gb", "peak_memory_bytes", "peak_memory_gb")


@dataclass
class ExecutionResult:
    """Measured outcome of executing one plan on the simulated server.

    A result is read-only once made: its :attr:`document` is built on
    first use and kept, and :meth:`to_dict` copies it.
    """

    plan: SchedulePlan
    epoch_time: float
    step_time: float
    steps_per_epoch: int
    breakdown: Dict[int, Dict[str, float]]
    peak_memory_bytes: Dict[int, float]
    trace: Optional[Trace] = None
    metadata: dict = field(default_factory=dict)

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

    @cached_property
    def document(self) -> dict:
        """The record this result is stored as, built once: shared, so read-only.

        It carries the full plan and raw peak-memory bytes (not the trace),
        so :meth:`from_dict` rebuilds an equivalent result.  Keys come in
        canonical order (sorted, device keys sorted as strings), so it
        dumps to the same bytes as the store's canonical JSON.  It holds
        every breakdown or metadata container of the result that is
        already in canonical order, as a hydrated result's are, rather
        than copies of them.
        """
        peak_memory = by_device(self.peak_memory_bytes)
        return {
            "batch_size": self.plan.batch_size,
            "breakdown_s": {
                device: _in_name_order(categories)
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

    def to_dict(self) -> dict:
        """JSON-serialisable summary: a copy of :attr:`document`.

        Every call returns a fresh dict that the caller owns (every dict
        and list in it new, the numbers and names shared), so editing it
        leaves the result, and the next answer a session gives from it,
        alone.  Repeated calls copy the one document and rebuild nothing.
        """
        document = self.document
        copy = document.copy()
        copy["breakdown_s"] = {
            device: categories.copy()
            for device, categories in document["breakdown_s"].items()
        }
        copy["metadata"] = copied(document["metadata"])
        copy["peak_memory_bytes"] = document["peak_memory_bytes"].copy()
        copy["peak_memory_gb"] = document["peak_memory_gb"].copy()
        copy["plan"] = copied_plan(document["plan"])
        return copy

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutionResult":
        """Rebuild a result from :meth:`to_dict` (store hydration path).

        The trace is gone (it was never serialised), but every quantity the
        analysis layer consumes — epoch/step time, breakdowns, peak memory,
        the validated plan — round-trips exactly, so :meth:`to_dict`
        rebuilds ``payload`` with the same keys in the same order, and the
        result does not keep ``payload`` itself.  So ``payload`` must hold
        exactly the fields :meth:`to_dict` emits, and the fields derived
        from the plan and the peak memory must agree with them.
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
                int(device): _interned(categories)
                for device, categories in payload["breakdown_s"].items()
            },
            peak_memory_bytes={
                int(device): bytes_
                for device, bytes_ in payload["peak_memory_bytes"].items()
            },
            trace=None,
            metadata=_interned(payload["metadata"]),
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


def _in_name_order(categories: Dict[str, float]) -> Dict[str, float]:
    """``categories`` sorted by name: itself when already in order, as hydrated ones are."""
    names = sorted(categories)
    if names == list(categories):
        return categories
    return {name: categories[name] for name in names}


def _interned(mapping: dict) -> dict:
    """A record object's names interned, so results kept in memory share them."""
    if not isinstance(mapping, dict):
        raise TypeError(f"expected an object, got a {type(mapping).__name__}")
    return {intern(name): value for name, value in mapping.items()}


#: What the devices of one pipeline stage run each step: ``(devices, teacher
#: blocks, student blocks, micro-batch)``.
Stage = Tuple[Sequence[int], Sequence[int], Sequence[int], int]


class Phase(NamedTuple):
    """One simulation of a plan: a graph template key, each slot's duration, and its stages.

    ``stages`` lists what each group of the phase's devices runs.  A
    pipeline stage's teacher and student blocks are its blocks; a DP block
    is a one-stage pipeline whose teacher runs every block up to it; an LS
    device runs the teacher up to its last block and trains its own blocks.
    A pipeline's durations and every phase's peak memory are read from them.
    """

    key: Hashable
    duration: Callable[[Hashable], float]
    stages: List[Stage]


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
    """The steps each phase of ``plan`` runs.

    A DP block is lowered as a one-stage pipeline phase like any other, but
    it always runs :data:`DATA_PARALLEL_STEPS` steps: the plan kind, not
    the phase's key, decides this.
    """
    return DATA_PARALLEL_STEPS if plan.kind == "data_parallel" else steps


class TemplateEntry(NamedTuple):
    """One plan shape's graph: its one-step template, and its slots named by key."""

    template: GraphTemplate
    slot_keys: Tuple[Hashable, ...]


class GraphTemplates:
    """Thread-safe table of graph templates, one per plan shape.

    A key holds everything that decides a graph's rows, names and
    dependencies but not the step count.  The builder of its graph kind
    makes one step of the graph (a :class:`~repro.sim.engine.StepBlock`),
    once per key, and its template runs that step for any step count.  The
    table holds at most :data:`HELD_TEMPLATE_SHAPES` shapes (a
    :class:`~repro.memo.Memo`) and builds a dropped one again.  ``builds``
    counts the blocks built.
    """

    def __init__(self) -> None:
        self._entries = Memo(HELD_TEMPLATE_SHAPES)
        self._lock = threading.Lock()
        self.builds = 0

    def get(self, key: Hashable) -> TemplateEntry:
        """The entry for ``key``, built by its graph kind's builder (``key[0]``) if not held."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                graph = _GraphBuilder()
                _GRAPH_BUILDERS[key[0]](key, graph)
                template = GraphTemplate(graph.block())
                entry = self._entries[key] = TemplateEntry(template, tuple(graph.slots))
                self.builds += 1
        return entry

    def shapes(self) -> Tuple[Hashable, ...]:
        """The keys of the held templates, least recently used first."""
        with self._lock:
            return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def evictions(self) -> int:
        """Shapes dropped past :data:`HELD_TEMPLATE_SHAPES`."""
        return self._entries.evictions

    @property
    def num_tasks(self) -> int:
        """Rows held over every template: one step of each shape."""
        with self._lock:
            return left_sum(entry.template.num_tasks for entry in self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class _GraphBuilder:
    """Adds one step's tasks, whose durations are slots numbered in order of first use.

    A task's ``name`` marks where the step number goes with ``{step}``;
    ``deps`` are rows of the same step, and :meth:`carry` adds rows of the
    previous step.  :meth:`block` checks the rows once, in one pass, and
    returns them as the :class:`~repro.sim.engine.StepBlock` a template runs.
    """

    def __init__(self) -> None:
        self.slots: Dict[Hashable, int] = {}
        self.rows: List[tuple] = []  # (name pieces, kind, resource, slot, deps, device, block)
        self.carried: Dict[int, Tuple[int, ...]] = {}

    def add(
        self,
        slot_key: Hashable,
        name: str,
        kind: TaskKind,
        resource: str,
        deps: Tuple[int, ...],
        device: int,
        block: int = -1,
    ) -> int:
        slot = self.slots.setdefault(slot_key, len(self.slots))
        self.rows.append((name.split("{step}"), kind, resource, slot, deps, device, block))
        return len(self.rows) - 1

    def carry(self, rows: List[int], deps: List[int]) -> None:
        """Rows ``rows`` also depend on rows ``deps`` of the previous step."""
        for row in rows:
            self.carried[row] = tuple(deps)

    def block(self) -> StepBlock:
        """Every row added, as one step labelled 0."""
        names, kinds, resources, slots, deps, devices, blocks = zip(*self.rows)
        num_rows = len(self.rows)
        return step_block(
            names=names,
            kinds=kinds,
            resources=resources,
            slots=slots,
            deps=deps,
            carried=[self.carried.get(row, ()) for row in range(num_rows)],
            steps=[0] * num_rows,
            devices=devices,
            blocks=blocks,
            metadata=[None] * num_rows,
        )


def _pipeline_graph(key: Hashable, graph: _GraphBuilder) -> None:
    """One pipeline step; slots are ``(stage_id, duration name)``.

    Without decoupled updates, every teacher forward also waits for the
    previous step's weight updates.
    """
    _, decoupled_update, stages = key
    step_updates: List[int] = []
    teacher_task_ids: Dict[int, List[int]] = {}
    for stage_id, device_ids, first_block, has_allreduce in stages:
        backward_ids: List[int] = []
        pre_update_ids: Dict[int, int] = {}
        for replica_index, device in enumerate(device_ids):
            # --- input: data load (stage 0) or activation receive --- #
            if stage_id == 0:
                input_dep = graph.add(
                    (stage_id, "load"),
                    name=f"load[s{{step}},d{device}]",
                    kind=TaskKind.DATA_LOAD,
                    resource=host_loader(),
                    deps=(),
                    device=device,
                )
            else:
                previous_devices = stages[stage_id - 1][1]
                source_device = previous_devices[replica_index % len(previous_devices)]
                input_dep = graph.add(
                    (stage_id, "recv"),
                    name=f"recv[s{{step}},d{device}]",
                    kind=TaskKind.RECV,
                    resource=device_link(source_device, device),
                    deps=tuple(teacher_task_ids[stage_id - 1]),
                    device=device,
                )

            # --- teacher forward --- #
            teacher_id = graph.add(
                (stage_id, "teacher"),
                name=f"T[s{{step}},d{device}]",
                kind=TaskKind.TEACHER_FORWARD,
                resource=device_compute(device),
                deps=(input_dep,),
                device=device,
                block=first_block,
            )
            teacher_task_ids.setdefault(stage_id, []).append(teacher_id)

            # --- student forward / backward --- #
            student_fwd = graph.add(
                (stage_id, "student_fwd"),
                name=f"Sf[s{{step}},d{device}]",
                kind=TaskKind.STUDENT_FORWARD,
                resource=device_compute(device),
                deps=(teacher_id,),
                device=device,
                block=first_block,
            )
            student_bwd = graph.add(
                (stage_id, "student_bwd"),
                name=f"Sb[s{{step}},d{device}]",
                kind=TaskKind.STUDENT_BACKWARD,
                resource=device_compute(device),
                deps=(student_fwd,),
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
                name=f"allreduce[s{{step}},stage{stage_id}]",
                kind=TaskKind.ALLREDUCE,
                resource=collective(f"stage{stage_id}"),
                deps=tuple(backward_ids),
                device=-1,
            )

        # --- weight updates --- #
        for device in device_ids:
            update_deps = [pre_update_ids[device]]
            if allreduce_id is not None:
                update_deps.append(allreduce_id)
            step_updates.append(
                graph.add(
                    (stage_id, "update"),
                    name=f"U[s{{step}},d{device}]",
                    kind=TaskKind.WEIGHT_UPDATE,
                    resource=device_compute(device),
                    deps=tuple(update_deps),
                    device=device,
                    block=first_block,
                )
            )
    if not decoupled_update:
        for teacher_ids in teacher_task_ids.values():
            graph.carry(teacher_ids, step_updates)


def _layerwise_graph(key: Hashable, graph: _GraphBuilder) -> None:
    """One LS step; slots are ``(duration name, block)``."""
    _, device_blocks = key
    for device, block_ids in device_blocks:
        max_block = max(block_ids)
        load_id = graph.add(
            ("load", -1),
            name=f"load[s{{step}},d{device}]",
            kind=TaskKind.DATA_LOAD,
            resource=host_loader(),
            deps=(),
            device=device,
        )
        previous = graph.add(
            ("teacher", max_block),
            name=f"T0..{max_block}[s{{step}},d{device}]",
            kind=TaskKind.TEACHER_FORWARD,
            resource=device_compute(device),
            deps=(load_id,),
            device=device,
            block=max_block,
        )
        for block_id in block_ids:
            student_fwd = graph.add(
                ("student_fwd", block_id),
                name=f"Sf{block_id}[s{{step}},d{device}]",
                kind=TaskKind.STUDENT_FORWARD,
                resource=device_compute(device),
                deps=(previous,),
                device=device,
                block=block_id,
            )
            student_bwd = graph.add(
                ("student_bwd", block_id),
                name=f"Sb{block_id}[s{{step}},d{device}]",
                kind=TaskKind.STUDENT_BACKWARD,
                resource=device_compute(device),
                deps=(student_fwd,),
                device=device,
                block=block_id,
            )
            previous = graph.add(
                ("update", block_id),
                name=f"U{block_id}[s{{step}},d{device}]",
                kind=TaskKind.WEIGHT_UPDATE,
                resource=device_compute(device),
                deps=(student_bwd,),
                device=device,
                block=block_id,
            )


#: Each graph kind's builder (a key's first item): adds one step of the key's rows.
_GRAPH_BUILDERS: Dict[str, Callable[[Hashable, _GraphBuilder], None]] = {
    "pipeline": _pipeline_graph,
    "layerwise": _layerwise_graph,
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
        if simulated_steps > MAX_SIMULATED_STEPS:
            raise ScheduleError(
                f"simulated_steps must be at most {MAX_SIMULATED_STEPS}, got {simulated_steps}"
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
        so lowering looks each phase's template up
        (:meth:`GraphTemplates.get`), building it when the table holds none.
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
        phases = self._phases(plan)
        values = []
        for key, duration, _ in phases:
            values += map(duration, self.templates.get(key).slot_keys)
        return LoweredPlan(
            plan=plan,
            steps_per_epoch=self.dataset.steps_per_epoch(plan.batch_size),
            keys=tuple(phase.key for phase in phases),
            values=array("d", values),
            peak_memory_bytes=self._peak_memory(plan.num_devices, phases),
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
            graph = self.templates.get(key)
            start, end = end, end + len(graph.slot_keys)
            trace = graph.template.instantiate(lowered.values[start:end], steps).run()
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
            stages = [
                (
                    stage.device_ids,
                    stage.block_ids,
                    stage.block_ids,
                    stage.per_device_batch(plan.batch_size),
                )
                for stage in plan.stages
            ]
            return [self._pipeline_phase(plan.decoupled_update, stages)]
        if plan.kind == "layerwise":
            return [self._layerwise_phase(plan)]
        return self._data_parallel_phases(plan)

    def _stage_durations(
        self,
        devices: Sequence[int],
        teacher_ids: Sequence[int],
        student_ids: Sequence[int],
        batch: int,
    ) -> Dict[str, float]:
        """One pipeline stage's time per duration name.

        Each device of the stage runs the teacher over ``teacher_ids`` and
        trains ``student_ids`` on its ``batch`` samples; a stage whose
        teacher starts past block 0 receives the previous block's output.
        """
        first = teacher_ids[0]
        return {
            "teacher": self._teacher_time(teacher_ids, batch),
            "student_fwd": self._student_forward_time(student_ids, batch),
            "student_bwd": self._student_backward_time(student_ids, batch),
            "update": self._update_time(student_ids),
            "allreduce": (
                self.server.interconnect.allreduce_time(
                    self._grad_bytes(student_ids), len(devices)
                )
                if len(devices) > 1
                else 0.0
            ),
            "load": self.loader.batch_load_time(batch, concurrent_loaders=1),
            "recv": (
                self.server.interconnect.transfer_time(self._boundary_bytes(first - 1, batch))
                if first > 0
                else 0.0
            ),
        }

    def _pipeline_phase(
        self, decoupled_update: bool, stages: List[Stage], allreduce_row: bool = False
    ) -> Phase:
        """One pipeline of ``stages``, in order; slots are ``(stage index, duration name)``.

        A stage has an all-reduce row when its all-reduce takes time, or
        always with ``allreduce_row``, so that test is part of the shape.
        """
        durations = [self._stage_durations(*stage) for stage in stages]
        key = (
            "pipeline",
            decoupled_update,
            tuple(
                (
                    stage_id,
                    tuple(devices),
                    student_ids[0],
                    allreduce_row or durations[stage_id]["allreduce"] > 0.0,
                )
                for stage_id, (devices, _, student_ids, _) in enumerate(stages)
            ),
        )
        return Phase(key, lambda slot: durations[slot[0]][slot[1]], stages)

    def _layerwise_phase(self, plan: SchedulePlan) -> Phase:
        """One LS plan; slots are ``(duration name, block)``.

        Each device runs the teacher up to its last block at the full batch.
        """
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
        stages = [
            ((device,), range(max(block_ids) + 1), block_ids, batch)
            for device, block_ids in plan.device_blocks.items()
        ]
        return Phase(key, lambda slot: durations[slot[0]](slot[1]), stages)

    def _data_parallel_phases(self, plan: SchedulePlan) -> List[Phase]:
        """One phase per DP block: a one-stage pipeline without decoupled updates.

        Every device runs the teacher up to the block and trains the block
        on the floor of its share of the batch.  The stage keeps its
        all-reduce row on one device too, where the all-reduce takes no time.
        """
        devices = tuple(range(plan.num_devices))
        micro_batch = plan.per_device_batch()[0]
        return [
            self._pipeline_phase(
                False,
                [(devices, range(block_id + 1), (block_id,), micro_batch)],
                allreduce_row=True,
            )
            for block_id in range(plan.num_blocks)
        ]

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
            teacher = categories["teacher_exec"] * scale
            student = categories["student_exec"] * scale
            comm = categories["comm"] * scale
            busy = teacher + student + comm
            data_wait = min(categories["data_load"] * scale, max(0.0, epoch_time - busy))
            scaled[device] = {
                "teacher_exec": teacher,
                "student_exec": student,
                "comm": comm,
                "data_load": data_wait,
                "idle": max(0.0, epoch_time - busy - data_wait),
            }
        return scaled

    def _peak_memory(self, num_devices: int, phases: List[Phase]) -> array:
        """Peak allocation of each device, by id; an idle device holds the framework baseline.

        A device peaks at the largest footprint any phase's stage gives it
        (:attr:`Phase.stages`), so DP devices, which run every block in
        turn, peak at the largest block's.
        """
        memory_model = self.server.memory_model
        teacher, student = self.pair.teacher, self.pair.student
        peak: Dict[int, float] = {}
        for phase in phases:
            for devices, teacher_ids, student_ids, batch in phase.stages:
                peak_bytes = memory_model.device_peak_bytes(
                    teacher_blocks=[teacher.block(block_id) for block_id in teacher_ids],
                    student_blocks=[student.block(block_id) for block_id in student_ids],
                    batch=batch,
                )
                for device in devices:
                    peak[device] = max(peak.get(device, 0.0), peak_bytes)
        baseline = memory_model.framework_baseline_bytes
        return array("d", [peak.get(device, baseline) for device in range(num_devices)])
