"""Scheduling strategies for parallel blockwise distillation.

This subpackage implements every strategy the paper evaluates:

* ``DP`` — the data-parallel baseline of DNA (§II-B, Fig. 3a).
* ``LS`` — the layerwise-scheduling baseline of Blakeney et al. (§II-B).
* ``TR`` — teacher relaying (§IV-A, Fig. 3b).
* ``TR+DPU`` — teacher relaying + decoupled parameter update (§IV-B, Fig. 3c).
* ``TR+IR`` — internal relaying (§VII-A).
* ``TR+DPU+AHD`` — full Pipe-BD with automatic hybrid distribution
  (§IV-C, Fig. 3d).

All strategies produce a :class:`~repro.parallel.plan.SchedulePlan`, which the
:class:`~repro.parallel.executor.ScheduleExecutor` lowers onto the
discrete-event simulator.
"""

from repro.parallel.plan import SchedulePlan, StageAssignment
from repro.parallel.registry import (
    REGISTRY,
    Strategy,
    StrategyRegistry,
    register_strategy,
)
from repro.parallel.profiler import Profiler, ProfileTable
from repro.parallel.partition import contiguous_partitions
from repro.parallel.estimator import StageTimeEstimator
from repro.parallel.baseline_dp import build_dp_plan
from repro.parallel.baseline_ls import build_ls_plan
from repro.parallel.teacher_relay import build_tr_plan
from repro.parallel.internal_relay import build_ir_plan
from repro.parallel.hybrid import build_ahd_plan
from repro.parallel.executor import ScheduleExecutor, ExecutionResult

__all__ = [
    "SchedulePlan",
    "StageAssignment",
    "REGISTRY",
    "Strategy",
    "StrategyRegistry",
    "register_strategy",
    "Profiler",
    "ProfileTable",
    "contiguous_partitions",
    "StageTimeEstimator",
    "build_dp_plan",
    "build_ls_plan",
    "build_tr_plan",
    "build_ir_plan",
    "build_ahd_plan",
    "ScheduleExecutor",
    "ExecutionResult",
]
