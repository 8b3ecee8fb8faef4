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

The DP baseline trains blocks one after another, so it is executed as one
simulation per block and the results are summed; pipeline plans (TR and its
variants) and the LS baseline are executed as a single multi-step simulation
from which the steady-state step time is extracted.

Task graphs depend only on a plan's shape (see the keys in each
``_execute_*`` method), not on the batch size, server or dataset, so each
shape's graph is built once into a :class:`~repro.sim.engine.GraphTemplate`
held by :class:`GraphTemplates`; a run fills in the durations only.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.data.dataset import DatasetSpec
from repro.data.loader import DataLoadModel
from repro.errors import ScheduleError
from repro.hardware.cost_model import CostModel
from repro.hardware.server import ServerSpec
from repro.models.layers import BYTES_PER_ELEMENT
from repro.models.pairs import DistillationPair
from repro.parallel.plan import SchedulePlan, by_device, jsonable, plan_from_dict
from repro.sim.engine import GraphTemplate, SimulationEngine
from repro.sim.events import TaskKind
from repro.sim.metrics import BREAKDOWN_CATEGORIES, compute_breakdown
from repro.sim.resources import collective, device_compute, device_link, host_loader
from repro.sim.trace import Trace

#: Default number of training steps simulated to reach steady state.
DEFAULT_SIMULATED_STEPS = 10
#: Warm-up steps excluded from the steady-state step-time measurement.
WARMUP_STEPS = 2


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


class TemplateEntry(NamedTuple):
    """One plan shape's graph: built for ``steps`` steps, slots named by key."""

    steps: int
    template: GraphTemplate
    slot_keys: Tuple[Hashable, ...]


class GraphTemplates:
    """Thread-safe table of graph templates, one per plan shape.

    A key holds everything that decides a graph's rows, names and
    dependencies but not the step count: the graph for ``k`` steps is the
    first rows of the graph for more steps, so only the longest build is
    kept and shorter runs use a row prefix of it.
    """

    def __init__(self) -> None:
        self._entries: Dict[Hashable, TemplateEntry] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, steps: int) -> Tuple[TemplateEntry, int]:
        """The entry for ``key`` covering ``steps`` steps, and its rows for ``steps``.

        The entry is built from the key alone (by the builder of its plan
        kind, ``key[0]``) on a miss, or when the kept one has fewer steps.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.steps < steps:
                entry = self._entries[key] = _GRAPH_BUILDERS[key[0]](key, steps)
        return entry, entry.template.num_tasks // entry.steps * steps

    def shapes(self) -> Dict[Hashable, int]:
        """The steps each held template was built for, by key."""
        with self._lock:
            return {key: entry.steps for key, entry in self._entries.items()}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def num_tasks(self) -> int:
        """Rows held over every template."""
        with self._lock:
            return sum(entry.template.num_tasks for entry in self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class _GraphBuilder:
    """Adds tasks whose durations are slots, numbered in order of first use."""

    def __init__(self) -> None:
        self.engine = SimulationEngine()
        self.slots: Dict[Hashable, int] = {}

    def add(self, slot_key: Hashable, **task) -> int:
        slot = self.slots.setdefault(slot_key, len(self.slots))
        return self.engine.add_task(duration=slot, **task)

    def entry(self, steps: int) -> TemplateEntry:
        return TemplateEntry(steps, self.engine.freeze(), tuple(self.slots))


def _pipeline_graph(key: Hashable, steps: int) -> TemplateEntry:
    """Pipeline task graph; slots are ``(stage_id, duration name)``."""
    _, decoupled_update, stages = key
    graph = _GraphBuilder()
    teacher_task_ids: Dict[Tuple[int, int], List[int]] = {}
    previous_step_updates: List[int] = []

    for step in range(steps):
        step_updates: List[int] = []
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
                        deps=tuple(teacher_task_ids[(step, stage_id - 1)]),
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
                teacher_task_ids.setdefault((step, stage_id), []).append(teacher_id)

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
    return graph.entry(steps)


def _layerwise_graph(key: Hashable, steps: int) -> TemplateEntry:
    """LS task graph; slots are ``(duration name, block)``."""
    _, device_blocks = key
    graph = _GraphBuilder()
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
    return graph.entry(steps)


def _data_parallel_graph(key: Hashable, steps: int) -> TemplateEntry:
    """One DP block's task graph; slots are duration names."""
    _, num_devices, block_id = key
    graph = _GraphBuilder()
    previous_step_updates: List[int] = []
    for step in range(steps):
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
    return graph.entry(steps)


_GRAPH_BUILDERS: Dict[str, Callable[[Hashable, int], TemplateEntry]] = {
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
        if simulated_steps < WARMUP_STEPS + 2:
            raise ScheduleError(
                f"simulated_steps must be at least {WARMUP_STEPS + 2}, got {simulated_steps}"
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
    def execute(self, plan: SchedulePlan) -> ExecutionResult:
        """Execute a plan and return its measured result."""
        if plan.num_blocks != self.pair.num_blocks:
            raise ScheduleError(
                f"plan covers {plan.num_blocks} blocks but the pair has {self.pair.num_blocks}"
            )
        if plan.num_devices != self.server.num_devices:
            raise ScheduleError(
                f"plan targets {plan.num_devices} devices but the server has "
                f"{self.server.num_devices}"
            )
        if plan.kind == "pipeline":
            return self._execute_pipeline(plan)
        if plan.kind == "layerwise":
            return self._execute_layerwise(plan)
        return self._execute_data_parallel(plan)

    # ------------------------------------------------------------------ #
    # Shared duration helpers
    # ------------------------------------------------------------------ #
    def _teacher_time(self, block_ids, batch: int) -> float:
        return sum(
            self.cost_model.block_forward_time(self.pair.teacher.block(block_id), batch)
            for block_id in block_ids
        )

    def _student_forward_time(self, block_ids, batch: int) -> float:
        rounds = self.pair.student_rounds_per_step
        return rounds * sum(
            self.cost_model.block_forward_time(self.pair.student.block(block_id), batch)
            for block_id in block_ids
        )

    def _student_backward_time(self, block_ids, batch: int) -> float:
        rounds = self.pair.student_rounds_per_step
        return rounds * sum(
            self.cost_model.block_backward_time(self.pair.student.block(block_id), batch)
            for block_id in block_ids
        )

    def _update_time(self, block_ids) -> float:
        return sum(
            self.cost_model.weight_update_time(self.pair.student.block(block_id))
            for block_id in block_ids
        )

    def _grad_bytes(self, block_ids) -> float:
        return float(
            sum(self.pair.student.block(block_id).params for block_id in block_ids)
            * BYTES_PER_ELEMENT
        )

    def _boundary_bytes(self, block_id: int, batch: int) -> float:
        return float(self.pair.teacher.block(block_id).output_bytes_per_sample * batch)

    # ------------------------------------------------------------------ #
    # Pipeline plans (TR, TR+DPU, TR+DPU+AHD, TR+IR)
    # ------------------------------------------------------------------ #
    def _execute_pipeline(self, plan: SchedulePlan) -> ExecutionResult:
        stages = plan.stages
        steps = self.simulated_steps

        # Per-stage durations (identical for every replica in a stage).
        durations = {}
        for stage in stages:
            micro_batch = stage.per_device_batch(plan.batch_size)
            durations[stage.stage_id] = {
                "micro_batch": micro_batch,
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
                for stage in stages
            ),
        )
        graph, rows = self.templates.get(key, steps)
        engine = graph.template.instantiate(
            [durations[stage_id][name] for stage_id, name in graph.slot_keys], rows
        )
        trace = engine.run()
        step_time = trace.steady_state_step_time(skip_first=WARMUP_STEPS)
        steps_per_epoch = self.dataset.steps_per_epoch(plan.batch_size)
        epoch_time = step_time * steps_per_epoch
        breakdown = self._scaled_breakdown(trace, epoch_time, steps_per_epoch, steps)
        memory = self._pipeline_memory(plan)
        return ExecutionResult(
            plan=plan,
            epoch_time=epoch_time,
            step_time=step_time,
            steps_per_epoch=steps_per_epoch,
            breakdown=breakdown,
            peak_memory_bytes=memory,
            trace=trace,
            metadata={"simulated_steps": steps},
        )

    # ------------------------------------------------------------------ #
    # Layerwise plans (LS)
    # ------------------------------------------------------------------ #
    def _execute_layerwise(self, plan: SchedulePlan) -> ExecutionResult:
        assert plan.device_blocks is not None
        steps = self.simulated_steps
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
        graph, rows = self.templates.get(key, steps)
        engine = graph.template.instantiate(
            [durations[name](block) for name, block in graph.slot_keys], rows
        )
        trace = engine.run()
        step_time = trace.steady_state_step_time(skip_first=WARMUP_STEPS)
        steps_per_epoch = self.dataset.steps_per_epoch(batch)
        epoch_time = step_time * steps_per_epoch
        breakdown = self._scaled_breakdown(trace, epoch_time, steps_per_epoch, steps)
        memory = self._layerwise_memory(plan)
        return ExecutionResult(
            plan=plan,
            epoch_time=epoch_time,
            step_time=step_time,
            steps_per_epoch=steps_per_epoch,
            breakdown=breakdown,
            peak_memory_bytes=memory,
            trace=trace,
            metadata={"simulated_steps": steps},
        )

    # ------------------------------------------------------------------ #
    # Data-parallel plans (DP)
    # ------------------------------------------------------------------ #
    def _execute_data_parallel(self, plan: SchedulePlan) -> ExecutionResult:
        steps = max(4, WARMUP_STEPS + 2)
        micro_batch = max(1, plan.batch_size // plan.num_devices)
        steps_per_epoch = self.dataset.steps_per_epoch(plan.batch_size)
        load_time = self.loader.batch_load_time(micro_batch, concurrent_loaders=1)

        epoch_time = 0.0
        per_block_step_times: List[float] = []
        accumulated: Dict[int, Dict[str, float]] = {
            device: {category: 0.0 for category in BREAKDOWN_CATEGORIES}
            for device in range(plan.num_devices)
        }
        last_trace: Optional[Trace] = None

        for block_id in range(plan.num_blocks):
            prefix_blocks = tuple(range(block_id + 1))
            durations = {
                "load": load_time,
                "teacher": self._teacher_time(prefix_blocks, micro_batch),
                "student_fwd": self._student_forward_time((block_id,), micro_batch),
                "student_bwd": self._student_backward_time((block_id,), micro_batch),
                "update": self._update_time((block_id,)),
                "allreduce": self.server.interconnect.allreduce_time(
                    self._grad_bytes((block_id,)), plan.num_devices
                ),
            }
            key = ("data_parallel", plan.num_devices, block_id)
            graph, rows = self.templates.get(key, steps)
            engine = graph.template.instantiate([durations[name] for name in graph.slot_keys], rows)

            trace = engine.run()
            last_trace = trace
            block_step_time = trace.steady_state_step_time(skip_first=WARMUP_STEPS)
            per_block_step_times.append(block_step_time)
            epoch_time += block_step_time * steps_per_epoch
            block_breakdown = self._scaled_breakdown(
                trace, block_step_time * steps_per_epoch, steps_per_epoch, steps
            )
            for device in range(plan.num_devices):
                for category in BREAKDOWN_CATEGORIES:
                    accumulated[device][category] += block_breakdown[device][category]

        total_step_time = sum(per_block_step_times)
        memory = self._data_parallel_memory(plan)
        return ExecutionResult(
            plan=plan,
            epoch_time=epoch_time,
            step_time=total_step_time,
            steps_per_epoch=steps_per_epoch,
            breakdown=accumulated,
            peak_memory_bytes=memory,
            trace=last_trace,
            metadata={
                "simulated_steps_per_block": steps,
                "per_block_step_times": tuple(per_block_step_times),
            },
        )

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

    def _pipeline_memory(self, plan: SchedulePlan) -> Dict[int, float]:
        memory_model = self.server.memory_model
        result: Dict[int, float] = {}
        for stage in plan.stages:
            micro_batch = stage.per_device_batch(plan.batch_size)
            teacher_blocks = [self.pair.teacher.block(block_id) for block_id in stage.block_ids]
            student_blocks = [self.pair.student.block(block_id) for block_id in stage.block_ids]
            for device in stage.device_ids:
                result[device] = memory_model.device_peak_bytes(
                    teacher_blocks=teacher_blocks,
                    student_blocks=student_blocks,
                    batch=micro_batch,
                )
        for device in range(plan.num_devices):
            result.setdefault(device, memory_model.framework_baseline_bytes)
        return result

    def _layerwise_memory(self, plan: SchedulePlan) -> Dict[int, float]:
        assert plan.device_blocks is not None
        memory_model = self.server.memory_model
        result: Dict[int, float] = {}
        for device, block_ids in plan.device_blocks.items():
            max_block = max(block_ids)
            executed_teacher = [self.pair.teacher.block(i) for i in range(max_block + 1)]
            student_blocks = [self.pair.student.block(block_id) for block_id in block_ids]
            result[device] = memory_model.device_peak_bytes(
                teacher_blocks=executed_teacher,
                student_blocks=student_blocks,
                batch=plan.batch_size,
                resident_teacher_blocks=executed_teacher,
            )
        for device in range(plan.num_devices):
            result.setdefault(device, memory_model.framework_baseline_bytes)
        return result

    def _data_parallel_memory(self, plan: SchedulePlan) -> Dict[int, float]:
        memory_model = self.server.memory_model
        micro_batch = max(1, plan.batch_size // plan.num_devices)
        peak = 0.0
        for block_id in range(plan.num_blocks):
            executed_teacher = [self.pair.teacher.block(i) for i in range(block_id + 1)]
            student_blocks = [self.pair.student.block(block_id)]
            peak = max(
                peak,
                memory_model.device_peak_bytes(
                    teacher_blocks=executed_teacher,
                    student_blocks=student_blocks,
                    batch=micro_batch,
                    resident_teacher_blocks=executed_teacher,
                ),
            )
        return {device: peak for device in range(plan.num_devices)}
