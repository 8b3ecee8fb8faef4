"""Fig. 7 — per-rank memory overhead of Pipe-BD on NAS.

Peak memory allocation of each rank (and the maximum over ranks) for DP, LS,
TR/TR+DPU and TR+DPU+AHD on CIFAR-10 and ImageNet.  The paper's shape:
teacher relaying concentrates memory on the low-indexed ranks (large feature
maps), AHD relieves that by splitting the heavy blocks along the batch
dimension, and the average overhead of Pipe-BD over DP stays minor.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.analysis.memory_report import average_memory_overhead, per_rank_memory_gb
from repro.core.config import ExperimentConfig
from repro.core.reporting import format_table, memory_table

STRATEGIES = ("DP", "LS", "TR", "TR+DPU", "TR+DPU+AHD")


def _measure(session, dataset: str, fast_steps: int):
    config = ExperimentConfig(task="nas", dataset=dataset, simulated_steps=fast_steps)
    return session.ablation(config, STRATEGIES)


@pytest.mark.benchmark(group="fig7")
@pytest.mark.parametrize("dataset", ("cifar10", "imagenet"))
def test_fig7_memory_overhead(benchmark, session, dataset, fast_steps):
    suite = benchmark(_measure, session, dataset, fast_steps)
    results = suite.results

    emit(
        f"Fig. 7 — max memory allocation per rank (NAS, {dataset})",
        memory_table(results),
    )
    overhead_rows = [
        [strategy, f"{average_memory_overhead(results[strategy], results['DP']) * 100:.1f}%"]
        for strategy in STRATEGIES
        if strategy != "DP"
    ]
    emit(
        f"§VII-C — average per-rank memory overhead over DP ({dataset})",
        format_table(["strategy", "avg overhead"], overhead_rows),
    )

    tr = per_rank_memory_gb(results["TR"])
    ahd = per_rank_memory_gb(results["TR+DPU+AHD"])
    # TR's rank 0 holds the big-feature-map blocks.
    assert tr[0] >= max(tr[d] for d in (1, 2, 3)) * 0.99
    # Every strategy fits the 48 GB A6000.
    for result in results.values():
        assert result.max_memory_gb() < 48.0
    # AHD does not increase the worst rank compared with TR.
    assert max(ahd.values()) <= max(tr.values()) * 1.05
