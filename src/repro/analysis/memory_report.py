"""Per-rank memory reports (paper Fig. 7 and §VII-C)."""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError
from repro.fold import left_sum
from repro.parallel.executor import ExecutionResult


def per_rank_memory_gb(result: ExecutionResult) -> Dict[int, float]:
    """Peak memory allocation per rank, in GB."""
    return {
        device: peak_bytes / 1e9
        for device, peak_bytes in sorted(result.peak_memory_bytes.items())
    }


def max_memory_gb(result: ExecutionResult) -> float:
    """The Fig. 7 'Max.' bar: the largest per-rank allocation."""
    return result.max_memory_gb()


def average_memory_overhead(
    result: ExecutionResult, baseline: ExecutionResult
) -> float:
    """Average per-rank relative memory overhead versus a baseline.

    The paper reports Pipe-BD's overhead over DP as 8.7 % (CIFAR-10) and
    21.3 % (ImageNet) on average across ranks (§VII-C).
    """
    ours = result.peak_memory_bytes
    base = baseline.peak_memory_bytes
    if set(ours) != set(base):
        raise ConfigurationError("results cover different device sets")
    if not ours:
        raise ConfigurationError("results carry no memory information")
    ratios = [
        (ours[device] - base[device]) / base[device] for device in sorted(ours)
    ]
    return left_sum(ratios) / len(ratios)
