"""Tuning results: Pareto-frontier analytics and JSON export.

Covered by ``docs/TUNING.md`` (reading results) and ``docs/API.md``.

The frontier is computed over three minimised axes — epoch time (seconds),
GPU count and per-rank peak memory (GB) — so it answers the question the
paper's Figs. 5-7 circle around: *how much hardware buys how much speed, and
at what memory cost?*  Dominated points are pruned; the surviving frontier is
sorted by epoch time, fastest first.  :meth:`TuneResult.to_dict` produces the
JSON document consumed by :mod:`repro.analysis.pareto` and the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.tune.objective import TuneMeasurement
from repro.tune.space import TunePoint

#: The minimised axes of the Pareto frontier, in display order.
PARETO_AXES: Tuple[str, ...] = ("epoch_time", "gpus", "max_memory_gb")


def _axis_values(measurement: TuneMeasurement) -> Tuple[float, ...]:
    memory = measurement.max_memory_gb
    if memory is None:
        raise ConfigurationError(
            f"measurement {measurement.point.label()!r} has no memory reading "
            "(estimate-fidelity measurements cannot enter a Pareto frontier)"
        )
    return (measurement.epoch_time, float(measurement.gpus), memory)


def dominates(first: TuneMeasurement, second: TuneMeasurement) -> bool:
    """Whether ``first`` Pareto-dominates ``second`` (<= on all axes, < on one).

    Example:
        >>> from repro.tune.objective import TuneMeasurement
        >>> from repro.tune.result import dominates
        >>> from repro.tune.space import TunePoint
        >>> point = TunePoint(task="nas", dataset="cifar10", server="a6000",
        ...                   num_gpus=2, batch_size=128, strategy="DP")
        >>> fast = TuneMeasurement(point=point, epoch_time=5.0, cost=0.01,
        ...                        fidelity="simulated", simulated_steps=10,
        ...                        max_memory_gb=2.0)
        >>> slow = TuneMeasurement(point=point, epoch_time=9.0, cost=0.01,
        ...                        fidelity="simulated", simulated_steps=10,
        ...                        max_memory_gb=2.0)
        >>> dominates(fast, slow), dominates(slow, fast), dominates(fast, fast)
        (True, False, False)
    """
    a = _axis_values(first)
    b = _axis_values(second)
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_frontier(
    measurements: Sequence[TuneMeasurement],
) -> Tuple[TuneMeasurement, ...]:
    """The non-dominated subset, sorted fastest-first (stable on ties).

    Duplicate axis-vectors are kept once (the first occurrence wins), so the
    frontier never lists the same trade-off twice.

    Example:
        >>> from repro.tune.objective import TuneMeasurement
        >>> from repro.tune.result import pareto_frontier
        >>> from repro.tune.space import TunePoint
        >>> def m(gpus, t):
        ...     p = TunePoint(task="nas", dataset="cifar10", server="a6000",
        ...                   num_gpus=gpus, batch_size=128, strategy="DP")
        ...     return TuneMeasurement(point=p, epoch_time=t, cost=0.0,
        ...                            fidelity="simulated", simulated_steps=10,
        ...                            max_memory_gb=1.0)
        >>> frontier = pareto_frontier([m(4, 5.0), m(2, 8.0), m(4, 9.0)])
        >>> [(x.gpus, x.epoch_time) for x in frontier]
        [(4, 5.0), (2, 8.0)]
    """
    frontier = []
    seen_vectors = set()
    for candidate in measurements:
        vector = _axis_values(candidate)
        if vector in seen_vectors:
            continue
        if any(dominates(other, candidate) for other in measurements):
            continue
        seen_vectors.add(vector)
        frontier.append(candidate)
    frontier.sort(key=_axis_values)
    return tuple(frontier)


@dataclass
class TuneResult:
    """Outcome of one autotuning search.

    ``measurements`` holds every full-fidelity evaluation the driver made
    (in evaluation order); ``frontier`` its non-dominated subset; ``best``
    the objective's winner.  ``trajectory`` records best-so-far convergence
    against the number of simulations spent, which
    ``benchmarks/bench_tune_convergence.py`` plots.

    Example:
        >>> from repro.tune import TuneSpace, tune
        >>> result = tune(TuneSpace(strategies=("DP", "TR+DPU+AHD"),
        ...                         batch_sizes=(128,), gpu_counts=(2,)),
        ...               driver="exhaustive", budget=2, simulated_steps=4)
        >>> (result.best.point.strategy, len(result.frontier) >= 1)
        ('TR+DPU+AHD', True)
    """

    objective_name: str
    objective_sense: str
    driver: str
    budget: int
    space_summary: dict
    best: TuneMeasurement
    measurements: Tuple[TuneMeasurement, ...]
    frontier: Tuple[TuneMeasurement, ...]
    trajectory: Tuple[dict, ...] = ()
    notes: dict = field(default_factory=dict)
    evaluator_stats: dict = field(default_factory=dict)
    session_stats: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.measurements)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "objective": {"name": self.objective_name, "sense": self.objective_sense},
            "driver": self.driver,
            "budget": self.budget,
            "space": self.space_summary,
            "best": self.best.to_dict(),
            "frontier": [measurement.to_dict() for measurement in self.frontier],
            "measurements": [measurement.to_dict() for measurement in self.measurements],
            "trajectory": list(self.trajectory),
            "notes": dict(self.notes),
            "evaluator_stats": dict(self.evaluator_stats),
            "session_stats": dict(self.session_stats),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
