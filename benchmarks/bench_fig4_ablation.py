"""Fig. 4 — speedup and ablation of baselines and Pipe-BD.

Four cells: (NAS, compression) x (CIFAR-10, ImageNet) on 4x RTX A6000 at
batch 256.  For each cell the figure plots the speedup of LS, TR, TR+DPU,
TR+IR and TR+DPU+AHD over the DP baseline.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit, emit_json
from repro.core.config import ExperimentConfig
from repro.core.reporting import format_table
from repro.parallel.registry import REGISTRY

CELLS = (
    ("nas", "cifar10"),
    ("nas", "imagenet"),
    ("compression", "cifar10"),
    ("compression", "imagenet"),
)


def _measure_cell(session, task: str, dataset: str, fast_steps: int):
    config = ExperimentConfig(task=task, dataset=dataset, simulated_steps=fast_steps)
    return session.ablation(config, strategies=REGISTRY.names())


@pytest.mark.benchmark(group="fig4")
@pytest.mark.parametrize("task,dataset", CELLS, ids=[f"{t}-{d}" for t, d in CELLS])
def test_fig4_speedup_ablation(benchmark, session, task, dataset, fast_steps):
    suite = benchmark(_measure_cell, session, task, dataset, fast_steps)
    speedups, epoch_times = suite.speedups("DP"), suite.epoch_times()

    rows = [
        [strategy, f"{epoch_times[strategy]:.2f}s", f"{speedups[strategy]:.2f}x"]
        for strategy in REGISTRY.names()
    ]
    emit(
        f"Fig. 4 — speedup over DP ({task}, {dataset}, 4x A6000, batch 256)",
        format_table(["strategy", "epoch time", "speedup vs DP"], rows),
    )
    emit_json(f"fig4_{task}_{dataset}", suite.to_dict())

    # Shape checks shared by every cell: Pipe-BD wins, each Pipe-BD technique
    # is at least as good as the previous one.
    assert speedups["TR+DPU+AHD"] > 1.0
    assert speedups["TR+DPU+AHD"] >= speedups["TR+DPU"] * 0.99
    assert speedups["TR+DPU"] >= speedups["TR"] * 0.99
    assert speedups["TR+DPU+AHD"] > speedups["LS"]
    if dataset == "cifar10":
        # §VII-A: LS beats DP on CIFAR-10.
        assert speedups["LS"] > 1.0
    if dataset == "imagenet":
        # §VII-A: AHD has a large impact on ImageNet (heavy block 0).
        assert speedups["TR+DPU+AHD"] > speedups["TR+DPU"] * 1.05
