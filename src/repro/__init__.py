"""Pipe-BD: Pipelined Parallel Blockwise Distillation — reproduction library.

This package reproduces the system described in "Pipe-BD: Pipelined Parallel
Blockwise Distillation" (DATE 2023).  It contains:

* ``repro.models`` — layer-accurate architecture descriptions of the teacher
  and student networks the paper evaluates (MobileNetV2, ProxylessNAS
  supernet, VGG-16, depthwise-separable students).
* ``repro.hardware`` — analytical models of the paper's multi-GPU servers
  (RTX A6000 / RTX 2080Ti nodes, PCIe interconnects, shared host loaders).
* ``repro.sim`` — a discrete-event simulator used to execute training
  schedules on the modelled hardware.
* ``repro.parallel`` — every scheduling strategy in the paper: the
  data-parallel (DP) and layerwise-scheduling (LS) baselines, teacher
  relaying (TR), decoupled parameter update (DPU), automatic hybrid
  distribution (AHD) and internal relaying (IR).
* ``repro.distill`` — a small numpy autograd engine plus blockwise
  distillation trainers used to demonstrate that Pipe-BD's reordering does
  not change the mathematical formulation.
* ``repro.core`` — the Pipe-BD framework (Algorithm 1), the caching
  :class:`~repro.core.session.Session` every entry point runs through, and
  report formatting.
* ``repro.cluster`` — the fleet layer above single-server Pipe-BD:
  multi-job workload generation, pluggable gang-scheduling policies and an
  event-driven cluster simulator.
* ``repro.tune`` — the autotuner: search-space DSL, pluggable objectives
  and search drivers, incremental evaluation and Pareto-frontier results.
* ``repro.store`` — the persistence layer: a content-addressed on-disk
  experiment store that makes sweeps, tuning runs and fleet replays
  resumable across processes, plus the ``inline``/``process``
  execution-backend registry.
* ``repro.analysis`` — breakdowns, speedups, memory reports, schedule
  visualisation, fleet-level cluster reports, Pareto analytics and
  store warm/cold hit-rate reports.
* ``repro.serve`` — planner-as-a-service: the versioned HTTP JSON API
  (``/v1/plan``, ``/v1/sweep``, ``/v1/tune``, ``/v1/cluster``,
  ``/v1/precompute``) over one store-backed session, served by one
  dependency-free stdlib HTTP frontend.

The names below are imported on first access (PEP 562), so ``import
repro`` loads none of these layers and ``import repro.X`` loads only what
``X`` needs.

See ``docs/ARCHITECTURE.md`` for the layer map, ``docs/API.md`` for the
public API reference and ``docs/TUNING.md`` for the autotuning guide.
"""

import sys
import types

from repro.lazy import lazy_exports
from repro.version import __version__

#: Every public name but ``__version__`` is imported on first access, so
#: ``import repro.X`` loads only what ``X`` itself needs.
__getattr__, __dir__ = lazy_exports(
    globals(),
    (
        ("repro.core.config", ("ExperimentConfig",)),
        ("repro.core.pipebd", ("PipeBD",)),
        ("repro.core.session", ("Session", "SweepResult")),
        ("repro.parallel.registry", ("REGISTRY", "register_strategy")),
        (
            "repro.cluster",
            (
                "ClusterSimulator",
                "ClusterSpec",
                "NodeSpec",
                "POLICIES",
                "Workload",
                "default_cluster",
                "poisson_workload",
                "register_policy",
                "run_policy_comparison",
            ),
        ),
        ("repro.store", ("BACKENDS", "ExperimentStore", "open_store", "register_backend")),
        (
            "repro.tune",
            (
                "DRIVERS",
                "OBJECTIVES",
                "TuneResult",
                "TuneSpace",
                "register_driver",
                "register_objective",
                "tune",
            ),
        ),
    ),
)


class _Package(types.ModuleType):
    """``repro`` itself, keeping ``repro.tune`` the :func:`~repro.tune.tune`
    function: importing the ``repro.tune`` subpackage binds the package
    attribute to the subpackage, which would shadow the exported name."""

    def __setattr__(self, name: str, value) -> None:
        if name == "tune" and isinstance(value, types.ModuleType):
            value = value.tune
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__all__ = [
    "__version__",
    "ExperimentConfig",
    "PipeBD",
    "Session",
    "SweepResult",
    "REGISTRY",
    "register_strategy",
    "ClusterSimulator",
    "ClusterSpec",
    "NodeSpec",
    "POLICIES",
    "Workload",
    "default_cluster",
    "poisson_workload",
    "register_policy",
    "run_policy_comparison",
    "BACKENDS",
    "ExperimentStore",
    "open_store",
    "register_backend",
    "DRIVERS",
    "OBJECTIVES",
    "TuneResult",
    "TuneSpace",
    "register_driver",
    "register_objective",
    "tune",
]
