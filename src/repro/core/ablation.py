"""Ablation helpers (paper Fig. 4).

The paper's ablation compares six points: the DP and LS baselines, TR alone,
TR+DPU, the TR+IR alternative, and the full Pipe-BD (TR+DPU+AHD).  Since the
strategy-registry redesign the planners live behind
:data:`repro.parallel.registry.REGISTRY` (``REGISTRY.names()`` lists every
strategy in registration order); this module keeps ``build_plan`` and
``needs_profile`` as thin helpers over the registry, so user-registered
strategies work everywhere the built-ins do.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.data.dataset import DatasetSpec
from repro.hardware.server import ServerSpec
from repro.models.pairs import DistillationPair
from repro.parallel.plan import SchedulePlan
from repro.parallel.profiler import Profiler, ProfileTable
from repro.parallel.registry import REGISTRY


#: The ablation points shown in Fig. 4 / Fig. 5 / Fig. 6 (the paper sometimes
#: omits TR+IR, which it discusses only for the A6000 NAS ablation).
ABLATION_STRATEGIES: Tuple[str, ...] = ("DP", "LS", "TR", "TR+DPU", "TR+DPU+AHD")

#: The strategy called "Pipe-BD" in Table II.
PIPE_BD_STRATEGY: str = "TR+DPU+AHD"

#: Baseline strategies.
BASELINE_STRATEGIES: Tuple[str, ...] = ("DP", "LS")


def needs_profile(strategy: str) -> bool:
    """True if the strategy's planner consumes profiled block times."""
    return REGISTRY.requires_profile(strategy)


def make_profile(
    pair: DistillationPair,
    server: ServerSpec,
    batch_size: int,
) -> ProfileTable:
    """Profile the pair at every batch size any planner may request.

    The LS baseline scores blocks at the full batch size; the pipeline
    planners use the per-device micro-batch sizes, which the profiler's
    ``feasible_batches`` already covers.
    """
    profiler = Profiler(pair=pair, server=server)
    return profiler.profile(global_batch=batch_size, extra_batches=(batch_size,))


def build_plan(
    strategy: str,
    pair: DistillationPair,
    server: ServerSpec,
    batch_size: int,
    dataset: DatasetSpec,
    profile: Optional[ProfileTable] = None,
) -> SchedulePlan:
    """Build the plan for a named (registered) strategy.

    A profile table is created on demand when the strategy needs one and the
    caller did not supply it.
    """
    planner = REGISTRY.get(strategy)
    if planner.requires_profile and profile is None:
        profile = make_profile(pair, server, batch_size)
    return planner.build(pair, server, batch_size, dataset, profile=profile)
