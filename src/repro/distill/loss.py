"""Loss functions for blockwise distillation.

Blockwise distillation minimises ``L(delta_output)``, a measure of the
difference between the teacher block's output activation and the student
block's output activation for the same input (paper §II-A, Fig. 1).  The
usual choice — used by DNA and by the compression literature — is the mean
squared error between the two activations, optionally normalised per channel.
"""

from __future__ import annotations

from repro.distill.tensor import Tensor, as_tensor
from repro.errors import ShapeError


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    target = as_tensor(target)
    if prediction.shape != target.shape:
        raise ShapeError(
            f"mse_loss shapes differ: {prediction.shape} vs {target.shape}"
        )
    diff = prediction - target.detach()
    return (diff * diff).mean()


def blockwise_distillation_loss(student_out: Tensor, teacher_out: Tensor) -> Tensor:
    """The per-block distillation loss ``L(delta_output)``.

    The teacher activation is detached: the teacher is frozen and only
    provides the regression target.
    """
    return mse_loss(student_out, teacher_out.detach())
