"""Fig. 2 — motivational breakdown: Baseline vs Ideal vs Pipe-BD.

NAS on CIFAR-10 with four RTX A6000 GPUs, batch 256.  The paper's figure
shows the per-epoch time split into data loading, teacher execution, student
execution and idle time; the baseline is dominated by redundant teacher
execution and under-utilised student execution, the ideal bar removes all
redundancy, and Pipe-BD lands close to ideal.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.analysis.breakdown import breakdown_total, epoch_breakdown, ideal_breakdown
from repro.core.config import ExperimentConfig
from repro.core.reporting import format_table


def _measure(session, fast_steps: int):
    config = ExperimentConfig(task="nas", dataset="cifar10", simulated_steps=fast_steps)
    suite = session.ablation(config, ("DP", "TR+DPU+AHD"))
    baseline = epoch_breakdown(suite.results["DP"])
    pipe_bd = epoch_breakdown(suite.results["TR+DPU+AHD"])
    ideal = ideal_breakdown(
        config.build_pair(), config.build_server(), config.build_dataset(), config.batch_size
    )
    return baseline, ideal, pipe_bd


@pytest.mark.benchmark(group="fig2")
def test_fig2_motivational_breakdown(benchmark, session, fast_steps):
    baseline, ideal, pipe_bd = benchmark(_measure, session, fast_steps)

    categories = ("data_load", "teacher_exec", "student_exec", "idle")
    rows = []
    for label, breakdown in (("Baseline (DP)", baseline), ("Ideal", ideal), ("Pipe-BD", pipe_bd)):
        rows.append(
            [label]
            + [f"{breakdown[category]:.2f}s" for category in categories]
            + [f"{breakdown_total(breakdown):.2f}s"]
        )
    emit(
        "Fig. 2 — time/epoch breakdown (NAS, CIFAR-10, 4x A6000)",
        format_table(["bar"] + list(categories) + ["total"], rows),
    )

    # Shape checks: baseline > Pipe-BD > ideal, and the baseline's redundant
    # teacher execution is the dominant removable component.
    assert breakdown_total(baseline) > breakdown_total(pipe_bd) > breakdown_total(ideal)
    assert baseline["teacher_exec"] > pipe_bd["teacher_exec"]
    assert baseline["data_load"] >= pipe_bd["data_load"] * 0.95
