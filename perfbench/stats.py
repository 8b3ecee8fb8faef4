"""The benchmark's own arithmetic: percentiles, spreads and host-speed scaling."""

from __future__ import annotations

import math
import statistics
import time
from typing import Sequence, Tuple

#: The host-speed probe: a fixed loop of ``PROBE_LOOPS`` steps, timed every
#: ``PROBE_EVERY_S`` seconds while measured work runs (about 1% of it), and
#: what it takes on the reference host.  Timed work is reported as it would
#: take at that speed; the reference value only sets the scale.
PROBE_LOOPS = 2000
PROBE_EVERY_S = 0.02
REFERENCE_PROBE_S = 0.0002

#: How much more than the probe the planner's code slows when the host
#: does: its time goes as the probe's speed to this power.  Fitted on a
#: 2-vCPU cloud VM, where it halved the drift of scaled fleet replays over
#: four minutes against a plain ratio (exponent 1).
SPEED_EXPONENT = 1.25


def nearest_rank(values: Sequence[float], percent: float) -> Tuple[float, int, int]:
    """Nearest-rank percentile: ``(value, sample count, samples beyond it)``.

    The value is the smallest sample with at least ``percent`` % of the
    samples at or below it; "beyond" counts the samples ranked above it,
    the tail the percentile summarises.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    ordered = sorted(values)
    rank = math.ceil(percent / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered), len(ordered) - rank


def relative_iqr(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's spread)."""
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def probe(loops: int = PROBE_LOOPS, clock=time.perf_counter) -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    Shared VMs change speed by up to 2x several times a second; sampling
    this loop while work runs lets that work be scaled to one speed.
    """
    start = clock()
    total, table = 0, {}
    for number in range(loops):
        total += number
        table[number & 255] = total
    return clock() - start


def scaled(seconds: float, probe_times: Sequence[float]) -> float:
    """``seconds`` of work as it would take at the reference host speed.

    The probes are samples taken at even intervals during the work; each
    says how many times faster than the reference the host ran then.
    """
    return seconds * statistics.fmean(
        (REFERENCE_PROBE_S / each) ** SPEED_EXPONENT for each in probe_times
    )
