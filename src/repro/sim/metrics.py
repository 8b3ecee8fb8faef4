"""Breakdown and utilization metrics computed from traces (paper Fig. 2)."""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.errors import SimulationError
from repro.sim.events import STUDENT_EXEC_KINDS, TaskKind
from repro.sim.resources import device_compute, parse_device
from repro.sim.trace import Trace

#: Breakdown categories matching the paper's Fig. 2 legend.
BREAKDOWN_CATEGORIES = ("data_load", "teacher_exec", "student_exec", "comm", "idle")

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


def compute_breakdown(
    trace: Trace, num_devices: int, horizon: float | None = None
) -> Dict[int, Dict[str, float]]:
    """Per-device time breakdown over the trace.

    Returns ``{device_id: {category: seconds}}`` where the categories are
    data loading, teacher execution, student execution (forward + backward +
    update), communication attributed to the device's compute stream (usually
    zero since transfers occupy link resources), and idle time up to
    ``horizon`` (defaults to the trace makespan).

    Data-loading time is attributed to the device that consumes the batch
    (via the task's ``device`` label) because in the real system the loader
    worker blocks that device's training process.
    """
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
        busy = sum(
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


def aggregate_breakdown(breakdown: Dict[int, Dict[str, float]]) -> Dict[str, float]:
    """Sum a per-device breakdown over devices."""
    totals = {category: 0.0 for category in BREAKDOWN_CATEGORIES}
    for per_device in breakdown.values():
        for category, value in per_device.items():
            totals[category] = totals.get(category, 0.0) + value
    return totals


def resource_utilization(
    trace: Trace, resources: Iterable[str], horizon: float | None = None
) -> Dict[str, float]:
    """Fraction of the horizon each resource spends busy."""
    if horizon is None:
        horizon = trace.makespan
    if horizon <= 0:
        return {resource: 0.0 for resource in resources}
    return {
        resource: min(1.0, trace.resource_busy_time(resource) / horizon)
        for resource in resources
    }


def device_utilization(trace: Trace, num_devices: int, horizon: float | None = None) -> Dict[int, float]:
    """Compute-stream utilization per device."""
    named = resource_utilization(
        trace, [device_compute(device) for device in range(num_devices)], horizon
    )
    return {parse_device(resource): value for resource, value in named.items()}
