"""Design-choice ablations beyond the paper's figures.

Three extra studies called out in DESIGN.md:

* AHD search cost — the exhaustive search space size and the simulated cost
  of the one-off profiling run, versus one epoch (the paper's amortisation
  argument in §IV-C / §V-B).
* Device-count scaling — Pipe-BD speedup over DP with 2-8 GPUs (the paper's
  single-node setting; §VIII names multi-node as future work).
* Interconnect sensitivity — Pipe-BD on PCIe 4.0 vs PCIe 3.0 at fixed GPU
  type, quantifying the claim that relay communication is nearly negligible.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.analysis.sweep import gpu_sensitivity
from repro.core.ablation import make_profile
from repro.core.config import ExperimentConfig
from repro.core.reporting import format_table
from repro.data.dataset import get_dataset
from repro.hardware.interconnect import PCIE_3
from repro.hardware.server import ServerSpec, default_a6000_server
from repro.models.pairs import build_nas_pair
from repro.parallel.executor import ScheduleExecutor
from repro.parallel.hybrid import build_ahd_plan, search_ahd, search_space_size


@pytest.mark.benchmark(group="extras")
def test_ahd_search_cost(benchmark, session, fast_steps):
    """The AHD decision is a one-off, amortised cost."""
    pair = build_nas_pair("cifar10")
    server = default_a6000_server()
    dataset = get_dataset("cifar10")

    def run_search():
        profile = make_profile(pair, server, 256)
        return search_ahd(pair, server, 256, profile, dataset, keep_candidates=True), profile

    (result, profile) = benchmark(run_search)
    config = ExperimentConfig(task="nas", dataset="cifar10", simulated_steps=fast_steps)
    epoch = session.ablation(config, ("TR+DPU+AHD",)).results["TR+DPU+AHD"].epoch_time

    rows = [
        ["search space size (B=6, N=4)", str(search_space_size(6, 4))],
        ["candidates evaluated", str(result.num_candidates)],
        ["profiling cost (simulated)", f"{profile.profiling_cost_s:.2f}s"],
        ["one training epoch (simulated)", f"{epoch:.2f}s"],
        ["profiling cost / 100-epoch run", f"{profile.profiling_cost_s / (100 * epoch) * 100:.2f}%"],
    ]
    emit("AHD scheduling-overhead ablation", format_table(["quantity", "value"], rows))
    assert result.num_candidates == search_space_size(6, 4)
    assert profile.profiling_cost_s < 0.05 * 100 * epoch


@pytest.mark.benchmark(group="extras")
def test_device_count_scaling(benchmark, session, fast_steps):
    """Pipe-BD speedup over DP as the single-node GPU count grows."""

    def sweep():
        base = ExperimentConfig(task="nas", dataset="imagenet", simulated_steps=fast_steps)
        grid = session.sweep(
            base, num_gpus=(2, 4, 6, 8), strategies=("DP", "TR+DPU+AHD")
        )
        return gpu_sensitivity(grid, "TR+DPU+AHD")

    speedups = benchmark(sweep)
    rows = [[f"{n} GPUs", f"{speedups[n]:.2f}x"] for n in sorted(speedups)]
    emit("Device-count scaling (NAS, ImageNet)", format_table(["devices", "Pipe-BD vs DP"], rows))
    assert all(value > 1.0 for value in speedups.values())


@pytest.mark.benchmark(group="extras")
def test_interconnect_sensitivity(benchmark, fast_steps):
    """Relay/all-reduce traffic over PCIe 3.0 vs 4.0 barely moves the needle."""
    pair = build_nas_pair("imagenet")
    dataset = get_dataset("imagenet")
    fast_server = default_a6000_server()
    slow_server = ServerSpec(
        name="4x RTX A6000 (PCIe 3.0)",
        gpus=fast_server.gpus,
        interconnect=PCIE_3,
        host=fast_server.host,
    )

    def measure():
        times = {}
        for label, server in (("PCIe 4.0", fast_server), ("PCIe 3.0", slow_server)):
            profile = make_profile(pair, server, 256)
            plan = build_ahd_plan(pair, server, 256, profile, dataset)
            executor = ScheduleExecutor(
                pair=pair, server=server, dataset=dataset, simulated_steps=fast_steps
            )
            times[label] = executor.execute(plan).epoch_time
        return times

    times = benchmark(measure)
    slowdown = times["PCIe 3.0"] / times["PCIe 4.0"]
    rows = [[label, f"{value:.1f}s"] for label, value in times.items()]
    rows.append(["PCIe 3.0 / PCIe 4.0", f"{slowdown:.3f}x"])
    emit("Interconnect sensitivity (NAS, ImageNet, Pipe-BD)", format_table(["config", "epoch"], rows))
    # §IV-A: communication is almost negligible in the single-node setting.
    assert slowdown < 1.25
