"""Fig. 6 — batch-size sensitivity of Pipe-BD on NAS.

Batch sizes 128 / 256 / 384 / 512 on CIFAR-10 and ImageNet, 4x RTX A6000,
speedups normalised against DP at each batch size.  The paper's trends: the
speedup is generally larger at smaller batch sizes (utilization gap), except
AHD on ImageNet which improves with batch size.

This benchmark drives the grid through ``Session.sweep``, so the profile
table for each (pair, server, batch) cell is built exactly once and shared
by every strategy.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit, emit_json
from repro.core.config import ExperimentConfig
from repro.core.reporting import format_table

BATCH_SIZES = (128, 256, 384, 512)
STRATEGIES = ("DP", "LS", "TR", "TR+DPU", "TR+DPU+AHD")


def _measure(session, dataset: str, fast_steps: int):
    base = ExperimentConfig(task="nas", dataset=dataset, simulated_steps=fast_steps)
    return session.sweep(base, batch_sizes=BATCH_SIZES, strategies=STRATEGIES)


@pytest.mark.benchmark(group="fig6")
@pytest.mark.parametrize("dataset", ("cifar10", "imagenet"))
def test_fig6_batch_size_sensitivity(benchmark, session, dataset, fast_steps):
    sweep = benchmark(_measure, session, dataset, fast_steps)
    series = {strategy: sweep.series(strategy, axis="batch_size") for strategy in STRATEGIES}

    rows = [
        [strategy] + [f"{series[strategy][batch]:.2f}x" for batch in BATCH_SIZES]
        for strategy in STRATEGIES
    ]
    emit(
        f"Fig. 6 — speedup over DP vs batch size (NAS, {dataset}, 4x A6000)",
        format_table(["strategy"] + [f"b{batch}" for batch in BATCH_SIZES], rows),
    )
    emit_json(f"fig6_{dataset}", sweep.to_dict())

    # Pipe-BD wins at every batch size.
    for batch in BATCH_SIZES:
        assert series["TR+DPU+AHD"][batch] > 1.0
    # Fig. 6 trend: the advantage at the smallest batch is at least comparable
    # to the largest batch (utilization difference shrinks as batches grow).
    assert series["TR+DPU+AHD"][128] >= series["TR+DPU+AHD"][512] * 0.85
