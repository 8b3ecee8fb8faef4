"""Tests of partition enumeration and bin packing."""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ScheduleError
from repro.parallel.partition import (
    contiguous_partitions,
    count_contiguous_partitions,
    lpt_bin_packing,
)


class TestContiguousPartitions:
    def test_paper_search_space_size(self):
        # §IV-C: B-1 choose N-1 choices for B blocks and N devices.
        assert count_contiguous_partitions(6, 4) == comb(5, 3)
        assert len(list(contiguous_partitions(6, 4))) == comb(5, 3)

    def test_partitions_cover_all_blocks_in_order(self):
        for partition in contiguous_partitions(6, 3):
            flattened = [block for group in partition for block in group]
            assert flattened == list(range(6))

    def test_group_sizes_in_lexicographic_order(self):
        # The planner search breaks ties by this order.
        sizes = [tuple(map(len, partition)) for partition in contiguous_partitions(5, 3)]
        assert sizes == sorted(sizes)
        assert list(contiguous_partitions(3, 2)) == [((0,), (1, 2)), ((0, 1), (2,))]

    def test_too_many_groups_yields_nothing(self):
        assert list(contiguous_partitions(3, 4)) == []
        assert count_contiguous_partitions(3, 4) == 0


class TestLPTBinPacking:
    def test_covers_all_items_once(self):
        bins = lpt_bin_packing((3.0, 1.0, 4.0, 1.0, 5.0), 3)
        items = sorted(item for bin_items in bins for item in bin_items)
        assert items == [0, 1, 2, 3, 4]

    def test_heaviest_items_spread(self):
        bins = lpt_bin_packing((10.0, 9.0, 1.0, 1.0), 2)
        loads = [sum((10.0, 9.0, 1.0, 1.0)[i] for i in bin_items) for bin_items in bins]
        assert max(loads) <= 12.0

    @given(
        costs=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=10),
        bins=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_lpt_within_greedy_bound(self, costs, bins):
        # Any greedy list scheduler (LPT included) has a makespan of at most
        # total/m + (1 - 1/m) * max item.
        packed = lpt_bin_packing(tuple(costs), bins)
        loads = [sum(costs[i] for i in bin_items) for bin_items in packed]
        bound = sum(costs) / bins + (1.0 - 1.0 / bins) * max(costs)
        assert max(loads) <= bound + 1e-9

    def test_invalid_bins(self):
        with pytest.raises(ScheduleError):
            lpt_bin_packing((1.0,), 0)
