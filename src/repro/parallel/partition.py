"""Contiguous partition enumeration used by TR and AHD.

The paper notes that with ``B`` blocks and ``N`` devices the naive contiguous
distribution has only C(B-1, N-1) choices (§IV-C); automatic hybrid
distribution enlarges that space by also splitting blocks along the batch
dimension.  Both searches need the same primitive: enumerating compositions
(ordered partitions of an integer) and contiguous block groupings.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.errors import ScheduleError


def compositions(total: int, parts: int, minimum: int = 1) -> Iterator[Tuple[int, ...]]:
    """Yield ordered tuples of ``parts`` integers >= ``minimum`` summing to ``total``.

    ``compositions(4, 2)`` yields ``(1, 3), (2, 2), (3, 1)``.
    """
    if parts <= 0:
        raise ScheduleError("parts must be positive")
    if minimum < 0:
        raise ScheduleError("minimum must be non-negative")
    if total < parts * minimum:
        return

    def _recurse(remaining: int, slots: int, prefix: List[int]) -> Iterator[Tuple[int, ...]]:
        if slots == 1:
            if remaining >= minimum:
                yield tuple(prefix + [remaining])
            return
        # Leave at least `minimum` for each of the remaining slots.
        for value in range(minimum, remaining - minimum * (slots - 1) + 1):
            yield from _recurse(remaining - value, slots - 1, prefix + [value])

    yield from _recurse(total, parts, [])


def contiguous_partitions(num_blocks: int, num_groups: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Yield all ways to split blocks ``0..num_blocks-1`` into contiguous groups.

    Each yielded value is a tuple of ``num_groups`` tuples of block ids, in
    order.  There are C(num_blocks-1, num_groups-1) of them.
    """
    if num_blocks <= 0:
        raise ScheduleError("num_blocks must be positive")
    if num_groups <= 0:
        raise ScheduleError("num_groups must be positive")
    if num_groups > num_blocks:
        return
    for sizes in compositions(num_blocks, num_groups):
        groups: List[Tuple[int, ...]] = []
        start = 0
        for size in sizes:
            groups.append(tuple(range(start, start + size)))
            start += size
        yield tuple(groups)


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
