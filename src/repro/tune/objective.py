"""Tuning objectives and the measurement record they score.

Covered by ``docs/TUNING.md`` (objective guide) and ``docs/API.md``.

A :class:`TuneMeasurement` is one evaluated candidate: its simulated epoch
time, per-rank peak memory, dollar cost per epoch and (for fleet objectives)
jobs-per-hour throughput, tagged with the fidelity it was obtained at
(``"estimate"`` for the analytic model, ``"simulated"`` for a discrete-event
run).  An *objective* scores measurements; three built-ins are registered in
:data:`OBJECTIVES` (a :class:`~repro.registry.NamedRegistry` mirroring the
strategy and policy registries):

* ``"epoch_time"`` — minimise simulated seconds per training epoch,
* ``"jobs_per_hour"`` — maximise fleet throughput under a placement policy,
* ``"goodput_under_faults"`` — maximise useful throughput under injected
  faults (``needs_faults``),
* ``"deadline_hit_rate"`` — maximise deadlines met on a contended
  multi-tenant fleet (``needs_tenants``),
* ``"cost_per_job"`` — minimise dollars per completed job on the same
  contended, price-curve-metered fleet (``needs_tenants``),
* ``"cost"`` — minimise dollars per epoch, optionally under an epoch-time
  deadline (:class:`MinCostUnderDeadline`).

Objectives expose two rankings: :meth:`key` (lower-is-better, used on full
simulations) and :meth:`proxy_key` (lower-is-better on cheap estimates —
fleet throughput falls back to epoch time, which is monotone in it for a
fixed fleet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.cluster.market import GPU_HOURLY_RATES
from repro.errors import ConfigurationError
from repro.fold import left_sum
from repro.registry import NamedRegistry, make_register
from repro.tune.space import TunePoint

__all__ = [
    "OBJECTIVES",
    "TuneMeasurement",
    "cost_per_epoch",
    "register_objective",
    "resolve_objective",
]


def cost_per_epoch(server: str, num_gpus: int, epoch_time: float) -> float:
    """Dollar cost of one training epoch on ``num_gpus`` GPUs of a preset.

    Example:
        >>> from repro.tune.objective import cost_per_epoch
        >>> round(cost_per_epoch("a6000", 4, 3600.0), 2)
        4.4
    """
    if server not in GPU_HOURLY_RATES:
        raise ConfigurationError(
            f"no hourly rate for server {server!r}; known: {sorted(GPU_HOURLY_RATES)}"
        )
    return epoch_time / 3600.0 * num_gpus * GPU_HOURLY_RATES[server]


@dataclass(frozen=True)
class TuneMeasurement:
    """One evaluated candidate, at estimate or simulation fidelity.

    Example:
        >>> from repro.tune.objective import TuneMeasurement
        >>> from repro.tune.space import TunePoint
        >>> point = TunePoint(task="nas", dataset="cifar10", server="a6000",
        ...                   num_gpus=4, batch_size=256, strategy="DP")
        >>> m = TuneMeasurement(point=point, epoch_time=12.5, cost=0.015,
        ...                     fidelity="simulated", simulated_steps=10)
        >>> (m.gpus, m.to_dict()["epoch_time_s"])
        (4, 12.5)
    """

    point: TunePoint
    epoch_time: float
    cost: float
    fidelity: str
    simulated_steps: int
    max_memory_gb: Optional[float] = None
    jobs_per_hour: Optional[float] = None
    #: Fault-discounted fleet throughput (useful jobs/hour under an injected
    #: fault scenario); only set by the ``goodput_under_faults`` objective.
    goodput: Optional[float] = None
    #: Fraction of deadline-carrying jobs finishing on time in a contended
    #: multi-tenant probe; only set by tenant-aware objectives.
    deadline_hit_rate: Optional[float] = None
    #: Dollars per completed job in the same probe (price-curve metered).
    cost_per_job: Optional[float] = None

    @property
    def gpus(self) -> int:
        """GPU count of the candidate (a Pareto axis)."""
        return self.point.num_gpus

    def to_dict(self) -> dict:
        return {
            "point": self.point.to_dict(),
            "label": self.point.label(),
            "epoch_time_s": self.epoch_time,
            "gpus": self.gpus,
            "max_memory_gb": self.max_memory_gb,
            "cost_usd_per_epoch": self.cost,
            "jobs_per_hour": self.jobs_per_hour,
            "goodput_jobs_per_hour": self.goodput,
            "deadline_hit_rate": self.deadline_hit_rate,
            "cost_usd_per_job": self.cost_per_job,
            "fidelity": self.fidelity,
            "simulated_steps": self.simulated_steps,
        }


class ObjectiveRegistry(NamedRegistry):
    """Ordered name -> objective mapping with validated registration."""

    kind = "objective"
    kind_plural = "objectives"

    def validate(self, name: str, objective) -> None:
        if getattr(objective, "sense", None) not in ("min", "max"):
            raise ConfigurationError(
                f"objective {name!r} must expose sense 'min' or 'max'"
            )
        if not isinstance(getattr(objective, "needs_cluster", None), bool):
            raise ConfigurationError(
                f"objective {name!r} must expose a boolean 'needs_cluster'"
            )
        for method in ("score", "key", "proxy_key"):
            if not callable(getattr(objective, method, None)):
                raise ConfigurationError(
                    f"objective {name!r} must expose a callable {method!r}"
                )


#: The process-wide objective registry consulted by drivers, CLI and Session.
OBJECTIVES = ObjectiveRegistry()

#: Register an objective class or instance (usable as a decorator); see
#: :func:`repro.registry.make_register`.
register_objective = make_register(OBJECTIVES)


@register_objective
class MinEpochTime:
    """Minimise simulated seconds per training epoch (the paper's Table II).

    Example:
        >>> from repro.tune.objective import OBJECTIVES
        >>> OBJECTIVES.get("epoch_time").sense
        'min'
    """

    name = "epoch_time"
    sense = "min"
    needs_cluster = False

    def score(self, measurement: TuneMeasurement) -> float:
        """Natural-units score: seconds per epoch."""
        return measurement.epoch_time

    def key(self, measurement: TuneMeasurement) -> float:
        """Lower-is-better ranking key on full simulations."""
        return measurement.epoch_time

    def proxy_key(self, measurement: TuneMeasurement) -> float:
        """Lower-is-better ranking key on analytic estimates."""
        return measurement.epoch_time


@register_objective
class MaxJobsPerHour:
    """Maximise fleet throughput when every job runs this candidate cell.

    Requires a space with a ``policies`` axis; the evaluator probes each
    (cell, policy, cluster) by gang-scheduling a batch of identical jobs.

    Example:
        >>> from repro.tune.objective import OBJECTIVES
        >>> OBJECTIVES.get("jobs_per_hour").needs_cluster
        True
    """

    name = "jobs_per_hour"
    sense = "max"
    needs_cluster = True

    def score(self, measurement: TuneMeasurement) -> float:
        """Natural-units score: completed jobs per hour."""
        return measurement.jobs_per_hour or 0.0

    def key(self, measurement: TuneMeasurement) -> float:
        """Lower-is-better key (negated throughput)."""
        return -(measurement.jobs_per_hour or 0.0)

    def proxy_key(self, measurement: TuneMeasurement) -> float:
        """Packing-aware throughput proxy for fidelities without a fleet probe.

        Epoch time alone is anti-correlated with throughput across gang
        sizes (two 2-GPU gangs outpack one 4-GPU gang even if each is
        slower), so the proxy multiplies the candidate's epoch rate by how
        many of its gangs the fleet holds at once.
        """
        if measurement.jobs_per_hour is not None:
            return self.key(measurement)
        point = measurement.point
        if point.cluster is not None:
            slots = left_sum(
                node.num_gpus // point.num_gpus for node in point.cluster.nodes
            )
        else:
            slots = 1
        return -(max(slots, 1) * 3600.0 / measurement.epoch_time)


@register_objective
class MaxGoodputUnderFaults:
    """Maximise *useful* fleet throughput under an injected fault scenario.

    Like ``jobs_per_hour``, but the evaluator's fleet probe replays a
    seeded fault model through the elastic cluster simulator and scores
    :attr:`~repro.analysis.cluster_report.ClusterReport.goodput_jobs_per_hour`
    — throughput discounted by the GPU-time faults destroy.  Candidates
    whose strategies recover cheaply (decoupled sub-pipelines) and whose
    gang sizes re-partition well therefore win even when their fault-free
    epoch times tie.

    Requires a space with a ``policies`` axis (the probe gang-schedules a
    fleet); the fault scenario itself is configured on the evaluator /
    :func:`repro.tune.tuner.tune` (``faults=``, ``elastic=``).

    Example:
        >>> from repro.tune.objective import OBJECTIVES
        >>> obj = OBJECTIVES.get("goodput_under_faults")
        >>> (obj.sense, obj.needs_cluster, obj.needs_faults)
        ('max', True, True)
    """

    name = "goodput_under_faults"
    sense = "max"
    needs_cluster = True
    needs_faults = True

    def score(self, measurement: TuneMeasurement) -> float:
        """Natural-units score: useful jobs per hour under faults."""
        return measurement.goodput or 0.0

    def key(self, measurement: TuneMeasurement) -> float:
        """Lower-is-better key (negated goodput)."""
        return -(measurement.goodput or 0.0)

    def proxy_key(self, measurement: TuneMeasurement) -> float:
        """Fault-free packing proxy for fidelities without a fleet probe.

        Reuses the throughput proxy (slots x epoch rate): goodput is
        monotone in fault-free throughput for a fixed fault scenario, and
        cheap estimates cannot see faults anyway.
        """
        if measurement.goodput is not None:
            return self.key(measurement)
        return OBJECTIVES.get("jobs_per_hour").proxy_key(measurement)


@register_objective
class MaxDeadlineHitRate:
    """Maximise the deadline hit rate of a contended multi-tenant fleet.

    The evaluator's SLO probe gang-schedules a two-tenant contended
    workload (a best-effort tenant plus a deadline tenant, both running
    the candidate cell) under each policy and scores
    :attr:`~repro.analysis.cluster_report.ClusterReport.deadline_hit_rate`.
    Candidates whose gang sizes leave room for the deadline tenant's jobs
    — and policies that reorder or preempt for them — win.

    Requires a space with a ``policies`` axis; the tenant roster and the
    price curve are configured on the evaluator /
    :func:`repro.tune.tuner.tune` (``tenants=``, ``price_curve=``).

    Example:
        >>> from repro.tune.objective import OBJECTIVES
        >>> obj = OBJECTIVES.get("deadline_hit_rate")
        >>> (obj.sense, obj.needs_cluster, obj.needs_tenants)
        ('max', True, True)
    """

    name = "deadline_hit_rate"
    sense = "max"
    needs_cluster = True
    needs_tenants = True

    def score(self, measurement: TuneMeasurement) -> float:
        """Natural-units score: fraction of deadlines met."""
        return measurement.deadline_hit_rate or 0.0

    def key(self, measurement: TuneMeasurement) -> float:
        """Lower-is-better key (negated hit rate; ties: faster epochs)."""
        return -(measurement.deadline_hit_rate or 0.0)

    def proxy_key(self, measurement: TuneMeasurement) -> float:
        """Epoch-time proxy: shorter service times meet more deadlines."""
        if measurement.deadline_hit_rate is not None:
            return self.key(measurement)
        return measurement.epoch_time


@register_objective
class MinCostPerJob:
    """Minimise dollars per completed job on a contended, metered fleet.

    Scored from the same SLO probe as ``deadline_hit_rate``:
    :attr:`~repro.analysis.cluster_report.ClusterReport.cost_per_job`
    with GPU-seconds metered through the evaluator's price curve.
    Candidates that finish jobs with fewer GPU-seconds — or schedule
    them into cheap price-curve valleys — win.

    Example:
        >>> from repro.tune.objective import OBJECTIVES
        >>> obj = OBJECTIVES.get("cost_per_job")
        >>> (obj.sense, obj.needs_tenants)
        ('min', True)
    """

    name = "cost_per_job"
    sense = "min"
    needs_cluster = True
    needs_tenants = True

    def score(self, measurement: TuneMeasurement) -> float:
        """Natural-units score: dollars per completed job."""
        return measurement.cost_per_job or 0.0

    def key(self, measurement: TuneMeasurement) -> float:
        """Lower-is-better key; unprobed candidates rank last."""
        if measurement.cost_per_job is None:
            return math.inf
        return measurement.cost_per_job

    def proxy_key(self, measurement: TuneMeasurement) -> float:
        """Per-epoch cost proxy: cheap epochs make cheap jobs."""
        if measurement.cost_per_job is not None:
            return self.key(measurement)
        return measurement.cost


@register_objective
class MinCostUnderDeadline:
    """Minimise dollars per epoch, subject to an epoch-time deadline.

    Candidates whose epoch time exceeds ``deadline`` seconds score
    ``inf`` and can never win (the registered default has no deadline).

    Example:
        >>> from repro.tune.objective import MinCostUnderDeadline, TuneMeasurement
        >>> from repro.tune.space import TunePoint
        >>> point = TunePoint(task="nas", dataset="cifar10", server="a6000",
        ...                   num_gpus=2, batch_size=128, strategy="DP")
        >>> slow = TuneMeasurement(point=point, epoch_time=90.0, cost=0.05,
        ...                        fidelity="simulated", simulated_steps=10)
        >>> MinCostUnderDeadline(deadline=60.0).key(slow)
        inf
    """

    name = "cost"
    sense = "min"
    needs_cluster = False

    def __init__(self, deadline: float = math.inf) -> None:
        if not deadline > 0:  # NaN too: no epoch time exceeds it
            raise ConfigurationError("deadline must be > 0 seconds")
        self.deadline = deadline

    def score(self, measurement: TuneMeasurement) -> float:
        """Natural-units score: dollars per epoch."""
        return measurement.cost

    def key(self, measurement: TuneMeasurement) -> float:
        """Lower-is-better key; deadline violations rank last."""
        if measurement.epoch_time > self.deadline:
            return math.inf
        return measurement.cost

    def proxy_key(self, measurement: TuneMeasurement) -> float:
        """Estimates carry a cost too (derived from estimated epoch time)."""
        return self.key(measurement)


def resolve_objective(objective):
    """Accept an objective by registry name or as a duck-typed instance.

    Example:
        >>> from repro.tune.objective import resolve_objective
        >>> resolve_objective("epoch_time").name
        'epoch_time'
    """
    if isinstance(objective, str):
        return OBJECTIVES.get(objective)
    OBJECTIVES.validate(getattr(objective, "name", "<anonymous>"), objective)
    return objective
