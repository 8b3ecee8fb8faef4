"""The Pipe-BD framework (paper §V, Algorithm 1).

:class:`PipeBD` mirrors the paper's overall procedure:

1. *Initialization* — profile each block under feasible batch sizes (the
   "100 steps" profiling run of §V-B) and decide the block/device assignment
   with automatic hybrid distribution (Algorithm 1, line 4).
2. *Training* — every step, each device receives the relayed activation (or
   loads data if it owns block 0), runs its teacher blocks, forwards the
   boundary activation to the next device, runs its student blocks, shares
   gradients within its AHD group, and updates weights without waiting for
   other devices (decoupled parameter update).

In this reproduction step 2 executes on the discrete-event simulator; the
scheduling decisions and the dependency structure are exactly those of the
paper's Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.data.dataset import DatasetSpec
from repro.errors import ConfigurationError
from repro.hardware.server import ServerSpec
from repro.models.pairs import DistillationPair
from repro.parallel.executor import ExecutionResult, ScheduleExecutor
from repro.parallel.hybrid import search_ahd
from repro.parallel.plan import SchedulePlan
from repro.parallel.profiler import Profiler, ProfileTable
from repro.parallel.teacher_relay import build_tr_plan


@dataclass
class PipeBD:
    """High-level entry point: automatic scheduling + simulated training.

    Parameters
    ----------
    pair:
        Teacher/student pair to train.
    server:
        The multi-GPU server to schedule onto.
    dataset:
        Dataset descriptor (drives data-loading cost and steps per epoch).
    batch_size:
        Global (effective) batch size.
    enable_dpu / enable_ahd:
        Ablation switches: disabling AHD falls back to the best contiguous
        one-device-per-stage assignment (TR); disabling DPU keeps the
        per-step synchronisation barrier.
    """

    pair: DistillationPair
    server: ServerSpec
    dataset: DatasetSpec
    batch_size: int = 256
    enable_dpu: bool = True
    enable_ahd: bool = True
    simulated_steps: int = 10
    profile: Optional[ProfileTable] = field(default=None, repr=False)
    _plan: Optional[SchedulePlan] = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    def initialize(self) -> SchedulePlan:
        """Profile the blocks and decide the schedule (Algorithm 1, line 4)."""
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be positive")
        if self.profile is None:
            profiler = Profiler(pair=self.pair, server=self.server)
            self.profile = profiler.profile(global_batch=self.batch_size)
        if self.enable_ahd:
            result = search_ahd(
                self.pair, self.server, self.batch_size, self.profile, self.dataset
            )
            plan = result.best.plan
            if not self.enable_dpu:
                plan = replace(plan, decoupled_update=False)
        else:
            plan = build_tr_plan(
                self.pair,
                self.server,
                self.batch_size,
                self.profile,
                self.dataset,
                decoupled_update=self.enable_dpu,
            )
        self._plan = plan
        return plan

    # ------------------------------------------------------------------ #
    @property
    def plan(self) -> SchedulePlan:
        """The schedule decided at initialization (initialising lazily)."""
        if self._plan is None:
            self.initialize()
        assert self._plan is not None
        return self._plan

    def simulate_epoch(self) -> ExecutionResult:
        """Execute one training epoch on the simulated server."""
        executor = ScheduleExecutor(
            pair=self.pair,
            server=self.server,
            dataset=self.dataset,
            simulated_steps=self.simulated_steps,
        )
        return executor.execute(self.plan)

    def describe_schedule(self) -> str:
        """Human-readable schedule summary (the paper's Fig. 5b/5c content)."""
        return self.plan.describe()

    def scheduling_overhead_seconds(self) -> float:
        """Simulated cost of the one-off profiling run (amortisation check)."""
        if self.profile is None:
            self.initialize()
        assert self.profile is not None
        return self.profile.profiling_cost_s
