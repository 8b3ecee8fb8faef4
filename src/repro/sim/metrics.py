"""Breakdown and utilization metrics computed from traces (paper Fig. 2)."""

from __future__ import annotations

from typing import Dict, Iterable

from repro.sim.trace import Trace

#: Breakdown categories matching the paper's Fig. 2 legend.
BREAKDOWN_CATEGORIES = ("data_load", "teacher_exec", "student_exec", "comm", "idle")


def compute_breakdown(
    trace: Trace, num_devices: int, horizon: float | None = None
) -> Dict[int, Dict[str, float]]:
    """Per-device time breakdown over the trace.

    Returns ``{device_id: {category: seconds}}`` for devices
    ``0..num_devices-1``.  Rows are charged as the trace's
    :class:`~repro.sim.trace.AccountingLayout` says
    (:func:`~repro.sim.trace.accounting_layout` has the rules), summing
    ``end - start`` in row order (:meth:`~repro.sim.trace.Trace.busy_totals`):

    * ``teacher_exec``: teacher forwards; ``student_exec``: student
      forwards, backwards, weight updates and validation;
    * ``comm``: sends, receives, all-reduces and barriers, charged to the
      device of their compute stream or, on any other resource (a link, a
      collective), to the task's ``device`` label.  So a ``RECV`` on
      ``link:a->b`` labelled ``device=b`` counts as ``comm`` of the
      receiving device, while an all-reduce labelled ``device=-1`` (every
      all-reduce the executor builds) is dropped;
    * ``idle``: ``horizon`` (defaults to the trace makespan) minus the
      three busy categories above, floored at zero;
    * ``data_load``: the part of that idle time that the device's data
      loading could explain, ``min(idle, load time)``.  The load time is
      the ``DATA_LOAD`` rows labelled with the device (the loader worker
      blocks the training process that consumes the batch); ``idle``
      keeps the rest.  The wait is not traced to what the device actually
      waited for.

    Rows on devices outside ``0..num_devices-1`` are not counted.
    Collectives are not charged to their group, and a wait is not
    attributed to the dependency that released it; both are open work.
    """
    if horizon is None:
        horizon = trace.makespan
    breakdown: Dict[int, Dict[str, float]] = {
        device: dict.fromkeys(BREAKDOWN_CATEGORIES, 0.0) for device in range(num_devices)
    }
    for (device, category), total in trace.busy_totals().items():
        if device < num_devices:
            breakdown[device][category] = total

    for categories in breakdown.values():
        busy = categories["teacher_exec"] + categories["student_exec"] + categories["comm"]
        # Data loading overlaps with compute on a different resource, but when
        # the device is waiting for data it is idle on its compute stream.
        idle = max(0.0, horizon - busy)
        # Attribute the part of idle that is caused by data loading to the
        # data_load category, the rest stays idle.
        data_wait = min(idle, categories["data_load"])
        categories["data_load"] = data_wait
        categories["idle"] = idle - data_wait
    return breakdown


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
