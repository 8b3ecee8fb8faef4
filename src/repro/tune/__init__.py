"""Autotuner: search strategy x granularity x hardware x placement jointly.

Pipe-BD's core claim is that the right parallelisation is hardware- and
workload-dependent; this package makes the system *find* it instead of
making the user enumerate grids.  A :class:`~repro.tune.space.TuneSpace`
describes the candidate grid, an objective (``epoch_time``,
``jobs_per_hour``, ``cost``) scores candidates, a pluggable search driver
(``exhaustive``, ``random``, ``successive-halving``) decides what to
evaluate under a simulation budget, and the session-backed incremental
evaluator makes re-evaluation nearly free.  Results carry a Pareto frontier
over epoch time x GPUs x memory, with dominated points pruned.

Documented in ``docs/TUNING.md`` (guide) and ``docs/API.md`` (reference);
frontier reporting lives in :mod:`repro.analysis.pareto`.
"""

from repro.tune.space import TunePoint, TuneSpace, default_space
from repro.tune.objective import (
    MinCostUnderDeadline,
    OBJECTIVES,
    TuneMeasurement,
    cost_per_epoch,
    register_objective,
    resolve_objective,
)
from repro.tune.evaluator import EvaluatorStats, TuneEvaluator
from repro.tune.drivers import DRIVERS, DriverRun, SearchDriver, register_driver
from repro.tune.result import PARETO_AXES, TuneResult, dominates, pareto_frontier
from repro.tune.tuner import tune

__all__ = [
    "TunePoint",
    "TuneSpace",
    "default_space",
    "MinCostUnderDeadline",
    "OBJECTIVES",
    "TuneMeasurement",
    "cost_per_epoch",
    "register_objective",
    "resolve_objective",
    "EvaluatorStats",
    "TuneEvaluator",
    "DRIVERS",
    "DriverRun",
    "SearchDriver",
    "register_driver",
    "PARETO_AXES",
    "TuneResult",
    "dominates",
    "pareto_frontier",
    "tune",
]
