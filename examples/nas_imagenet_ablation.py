#!/usr/bin/env python3
"""NAS-on-ImageNet ablation: every scheduling strategy on both servers.

Reproduces the setting behind Figs. 4(a) and 5 of the paper: block-wisely
supervised NAS (MobileNetV2 teacher, ProxylessNAS supernet student) on
ImageNet, comparing DP, LS, TR, TR+DPU, TR+IR and full Pipe-BD on the default
4x RTX A6000 server and the alternative 4x RTX 2080Ti server, and showing how
automatic hybrid distribution picks different schedules for the two machines.

Usage::

    python examples/nas_imagenet_ablation.py
"""

from __future__ import annotations

from repro.analysis.schedule_viz import schedule_summary
from repro.core.config import ExperimentConfig
from repro.core.reporting import format_table, speedup_table
from repro.core.session import Session
from repro.parallel.registry import REGISTRY


def main() -> None:
    session = Session()
    plans = {}
    for server in ("a6000", "2080ti"):
        config = ExperimentConfig(task="nas", dataset="imagenet", server=server)
        suite = session.ablation(config, REGISTRY.names())
        print(speedup_table(suite))
        print()
        plans[server] = suite.results["TR+DPU+AHD"].plan

        rows = [
            [strategy, f"{result.epoch_time:.1f}s", f"{result.max_memory_gb():.2f} GB"]
            for strategy, result in suite.results.items()
        ]
        print(format_table(["strategy", "epoch (simulated)", "max rank memory"], rows))
        print()

    print("Automatically chosen Pipe-BD schedules (paper Fig. 5b/5c):")
    for server, plan in plans.items():
        print(f"\n--- {server} ---")
        print(schedule_summary(plan))


if __name__ == "__main__":
    main()
