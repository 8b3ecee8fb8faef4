"""Speedup computations (paper Figs. 4, 5a, 6)."""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.fold import left_sum
from repro.parallel.executor import ExecutionResult


def speedup_over(result: ExecutionResult, baseline: ExecutionResult) -> float:
    """Speedup of ``result`` relative to ``baseline`` (epoch-time ratio)."""
    if result.epoch_time <= 0:
        raise ConfigurationError("result epoch time must be positive")
    return baseline.epoch_time / result.epoch_time


def geometric_mean_speedup(speedups: Sequence[float]) -> float:
    """Geometric mean of a collection of speedups."""
    if not speedups:
        raise ConfigurationError("speedups must be non-empty")
    if any(value <= 0 for value in speedups):
        raise ConfigurationError("speedups must be positive")
    return math.exp(left_sum(math.log(value) for value in speedups) / len(speedups))


def crossover_batch(
    series_a: Mapping[int, float], series_b: Mapping[int, float]
) -> int | None:
    """Smallest batch size at which series B overtakes series A.

    Used to locate where one strategy's speedup crosses another's in the
    batch-size sensitivity sweep (Fig. 6); returns ``None`` if it never does.
    """
    for batch in sorted(set(series_a) & set(series_b)):
        if series_b[batch] >= series_a[batch]:
            return batch
    return None
