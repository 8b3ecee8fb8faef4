"""Contiguous partition enumeration used by TR and AHD.

The paper notes that with ``B`` blocks and ``N`` devices the naive contiguous
distribution has only C(B-1, N-1) choices (§IV-C); automatic hybrid
distribution enlarges that space by also splitting blocks along the batch
dimension.  Both planners walk the same block partitions
(:func:`contiguous_partitions`) and choose device counts for each with a DP
(:func:`repro.parallel.estimator.search_pipeline_plans`), so device
compositions are never enumerated.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, List, Tuple

from repro.errors import ScheduleError

#: Contiguous block groups in stage order, e.g. ``((0, 1), (2,), (3, 4, 5))``.
Partition = Tuple[Tuple[int, ...], ...]


def contiguous_partitions(num_blocks: int, num_groups: int) -> Iterator[Partition]:
    """Yield all ways to split blocks ``0..num_blocks-1`` into contiguous groups.

    Each yielded value is a tuple of ``num_groups`` tuples of block ids, in
    order, with the group sizes in lexicographic order:
    ``contiguous_partitions(3, 2)`` yields ``((0,), (1, 2))`` then
    ``((0, 1), (2,))``.  There are C(num_blocks-1, num_groups-1) of them.
    """
    if num_blocks <= 0:
        raise ScheduleError("num_blocks must be positive")
    if num_groups <= 0:
        raise ScheduleError("num_groups must be positive")
    # Cut points in lexicographic order give group sizes in lexicographic order.
    for cuts in combinations(range(1, num_blocks), num_groups - 1):
        bounds = (0, *cuts, num_blocks)
        yield tuple(tuple(range(start, stop)) for start, stop in zip(bounds, bounds[1:]))


def count_contiguous_partitions(num_blocks: int, num_groups: int) -> int:
    """C(num_blocks - 1, num_groups - 1), the size of the naive search space."""
    from math import comb

    if num_groups > num_blocks or num_groups <= 0:
        return 0
    return comb(num_blocks - 1, num_groups - 1)


def lpt_bin_packing(costs: Tuple[float, ...], num_bins: int) -> Tuple[Tuple[int, ...], ...]:
    """Longest-processing-time-first assignment of items to bins.

    Used by the LS baseline, which "adopts [a] bin packing algorithm to
    balance the workload" (§II-B).  Items (block ids) are sorted by
    decreasing cost and greedily placed on the least-loaded bin.  Returns a
    tuple of per-bin block-id tuples (some bins may be empty).
    """
    if num_bins <= 0:
        raise ScheduleError("num_bins must be positive")
    order = sorted(range(len(costs)), key=lambda index: costs[index], reverse=True)
    bins: List[List[int]] = [[] for _ in range(num_bins)]
    loads = [0.0] * num_bins
    for item in order:
        target = min(range(num_bins), key=lambda bin_index: loads[bin_index])
        bins[target].append(item)
        loads[target] += costs[item]
    return tuple(tuple(sorted(bin_items)) for bin_items in bins)
