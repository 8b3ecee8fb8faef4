"""Epoch-time breakdowns (paper Fig. 2).

Fig. 2 compares three bars for NAS on CIFAR-10 with four GPUs:

* *Baseline* — the DP strategy's per-epoch time split into data loading,
  teacher execution, student execution and idle time.
* *Ideal* — "measuring the training time of each part separately with a
  single GPU and dividing each time by four": an imaginary perfectly
  parallel system with no redundancy.
* *Pipe-BD* — the same breakdown under the full Pipe-BD schedule.

:func:`epoch_breakdown` derives the first and third bars from execution
results; :func:`ideal_breakdown` computes the second analytically from the
cost model, mirroring the paper's methodology.
"""

from __future__ import annotations

from typing import Dict

from repro.data.dataset import DatasetSpec
from repro.data.loader import DataLoadModel
from repro.fold import left_sum
from repro.hardware.server import ServerSpec
from repro.models.pairs import DistillationPair
from repro.parallel.executor import ExecutionResult
from repro.sim.metrics import BREAKDOWN_CATEGORIES

#: Categories of the Fig. 2 bars.
FIG2_CATEGORIES = ("data_load", "teacher_exec", "student_exec", "idle")


def epoch_breakdown(result: ExecutionResult) -> Dict[str, float]:
    """Mean per-device epoch breakdown (seconds) of one execution result.

    The paper's Fig. 2 plots time per epoch of one (representative) device;
    we report the mean over devices so imbalanced strategies are not
    misrepresented.  Collective time counts as idle.
    """
    totals = {category: 0.0 for category in BREAKDOWN_CATEGORIES}
    num_devices = len(result.breakdown)
    for categories in result.breakdown.values():
        for category, value in categories.items():
            totals[category] += value
    averaged = {category: value / num_devices for category, value in totals.items()}
    return {
        "data_load": averaged["data_load"],
        "teacher_exec": averaged["teacher_exec"],
        "student_exec": averaged["student_exec"],
        "idle": averaged["idle"] + averaged["comm"],
    }


def ideal_breakdown(
    pair: DistillationPair,
    server: ServerSpec,
    dataset: DatasetSpec,
    batch_size: int,
) -> Dict[str, float]:
    """The paper's 'ideal' bar: single-GPU times for each part divided by N.

    One epoch of ideal work is: load the data once, run every teacher block
    once per step at the full batch, and run every student block's training
    once per step at the full batch — all divided by the device count
    (perfect parallelisation, no redundancy, full-batch efficiency).
    """
    cost_model = server.cost_model()
    loader = DataLoadModel(dataset=dataset, host=server.host)
    steps = dataset.steps_per_epoch(batch_size)
    num_devices = server.num_devices

    teacher_step = left_sum(
        cost_model.block_forward_time(block, batch_size) for block in pair.teacher.blocks
    )
    rounds = pair.student_rounds_per_step
    student_step = left_sum(
        rounds
        * (
            cost_model.block_forward_time(block, batch_size)
            + cost_model.block_backward_time(block, batch_size)
        )
        + cost_model.weight_update_time(block)
        for block in pair.student.blocks
    )
    load_step = loader.batch_load_time(batch_size, concurrent_loaders=1)

    return {
        "data_load": steps * load_step / num_devices,
        "teacher_exec": steps * teacher_step / num_devices,
        "student_exec": steps * student_step / num_devices,
        "idle": 0.0,
    }


def breakdown_fractions(breakdown: Dict[str, float]) -> Dict[str, float]:
    """Normalise a breakdown to fractions of its total."""
    total = left_sum(breakdown.values())
    if total <= 0:
        return {category: 0.0 for category in breakdown}
    return {category: value / total for category, value in breakdown.items()}


def breakdown_total(breakdown: Dict[str, float]) -> float:
    """Total epoch time represented by a breakdown."""
    return left_sum(breakdown.values())
