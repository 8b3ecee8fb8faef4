#!/usr/bin/env python3
"""Model-compression workload: batch-size sweep and memory report.

Reproduces the compression side of the paper's evaluation (VGG-16 teacher
distilled into depthwise-separable replacement blocks): speedups over the DP
baseline across batch sizes (the Fig. 6 methodology applied to compression)
and the per-rank memory footprint of each strategy (Fig. 7 methodology).

The sweep runs through the :class:`~repro.core.session.Session` facade, so
the model pair is built once and each batch size is profiled exactly once,
shared by every strategy; independent cells execute in parallel.

Usage::

    python examples/compression_batch_sweep.py [cifar10|imagenet]
"""

from __future__ import annotations

import sys

from repro.analysis.memory_report import average_memory_overhead
from repro.analysis.sweep import format_best_cells, format_sweep_table
from repro.core.config import ExperimentConfig
from repro.core.reporting import memory_table
from repro.core.session import Session

STRATEGIES = ("DP", "LS", "TR", "TR+DPU", "TR+DPU+AHD")
BATCH_SIZES = (128, 256, 384, 512)


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "cifar10"
    session = Session()
    base = ExperimentConfig(task="compression", dataset=dataset)

    print(f"=== Batch-size sweep (compression, {dataset}, 4x A6000) ===")
    sweep = session.sweep(base, batch_sizes=BATCH_SIZES, strategies=STRATEGIES)
    print(format_sweep_table(sweep))
    print()
    print(format_best_cells(sweep))
    print()
    print(
        f"(session stats: {session.stats.profile_builds} profiles built, "
        f"{session.stats.profile_hits} cache hits, {session.stats.runs} runs)"
    )
    print()

    print(f"=== Per-rank peak memory at batch 256 (compression, {dataset}) ===")
    suite = sweep.cell(batch_size=256)
    print(memory_table(suite.results))
    overhead = average_memory_overhead(suite.results["TR+DPU+AHD"], suite.results["DP"])
    print(f"\nPipe-BD average per-rank memory overhead over DP: {overhead * 100:.1f}%")


if __name__ == "__main__":
    main()
