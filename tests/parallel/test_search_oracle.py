"""The exact planner search against exhaustive oracles.

:func:`repro.parallel.estimator.bottleneck_search` finds the TR and AHD
winner with a min-max DP over device counts for each block partition,
without enumerating candidates.  The oracles below are the plain loops it
replaced: they enumerate every (partition, device composition) candidate,
build a :class:`SchedulePlan` for each and score it with
:meth:`StageTimeEstimator.plan_step_time`, keeping the first strict
minimum.  Both sides must return the same winner at the same float.  A
second oracle drives the search core with synthetic stage totals drawn from
{1, 2, 3}, which forces ties, so the enumeration-order tie rule is checked
on block counts no shipped model has.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import VALID_DATASETS, VALID_SERVERS, VALID_TASKS, ExperimentConfig
from repro.core.session import Session
from repro.errors import ScheduleError
from repro.fold import left_sum
from repro.parallel.estimator import (
    StageTimeEstimator,
    bottleneck_search,
    stage_assignments_from_partition,
)
from repro.parallel.hybrid import AHDCandidate, search_ahd, search_space_size
from repro.parallel.partition import contiguous_partitions
from repro.parallel.plan import SchedulePlan
from repro.parallel.teacher_relay import build_tr_plan

_SESSION = Session()


def cell(task="nas", dataset="cifar10", server="a6000", num_gpus=4, batch_size=256):
    """(pair, server, dataset, profile, estimator) for one Session-cached cell."""
    config = ExperimentConfig(
        task=task,
        dataset=dataset,
        server=server,
        num_gpus=num_gpus,
        batch_size=batch_size,
        simulated_steps=4,
    )
    pair = _SESSION.pair(config)
    spec = _SESSION.server(config)
    data = _SESSION.dataset(config)
    profile = _SESSION.profile(config)
    estimator = StageTimeEstimator(pair=pair, server=spec, dataset=data, profile=profile)
    return pair, spec, data, profile, estimator


# --------------------------------------------------------------------- #
# Oracles: the un-memoised scalar loops, one plan per candidate
# --------------------------------------------------------------------- #
def compositions(total: int, parts: int, minimum: int = 1) -> Iterator[Tuple[int, ...]]:
    """Yield ordered tuples of ``parts`` integers >= ``minimum`` summing to ``total``.

    ``compositions(4, 2)`` yields ``(1, 3), (2, 2), (3, 1)``: lexicographic
    order, the tie order of the planner search.
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


def oracle_tr_plan(pair, server, batch_size, profile, dataset, decoupled_update=False):
    num_devices = server.num_devices
    num_blocks = pair.num_blocks
    num_stages = min(num_devices, num_blocks)
    if num_stages < 1:
        raise ScheduleError("need at least one device and one block")
    strategy = "TR+DPU" if decoupled_update else "TR"

    def make_plan(partition) -> SchedulePlan:
        stages = stage_assignments_from_partition(partition, [1] * num_stages)
        return SchedulePlan(
            kind="pipeline",
            strategy=strategy,
            batch_size=batch_size,
            num_devices=num_devices,
            num_blocks=num_blocks,
            decoupled_update=decoupled_update,
            stages=stages,
        )

    estimator = StageTimeEstimator(
        pair=pair, server=server, dataset=dataset, profile=profile
    )
    best_plan = None
    best_time = float("inf")
    for partition in contiguous_partitions(num_blocks, num_stages):
        candidate = make_plan(partition)
        step_time = estimator.plan_step_time(candidate)
        if step_time < best_time:
            best_time = step_time
            best_plan = candidate
    assert best_plan is not None
    best_plan.metadata["estimated_step_time"] = best_time
    best_plan.metadata["description"] = (
        "contiguous block groups, one device per stage, activations relayed"
    )
    return best_plan


def oracle_search_ahd(pair, server, batch_size, profile, dataset):
    """The first strict minimum, and every candidate in enumeration order."""
    num_devices = server.num_devices
    num_blocks = pair.num_blocks
    max_stages = min(num_blocks, num_devices)

    def make_plan(partition, device_counts) -> SchedulePlan:
        stages = stage_assignments_from_partition(partition, device_counts)
        return SchedulePlan(
            kind="pipeline",
            strategy="TR+DPU+AHD",
            batch_size=batch_size,
            num_devices=num_devices,
            num_blocks=num_blocks,
            decoupled_update=True,
            stages=stages,
        )

    best = None
    kept = []
    estimator = StageTimeEstimator(
        pair=pair, server=server, dataset=dataset, profile=profile
    )
    for num_stages in range(1, max_stages + 1):
        for partition in contiguous_partitions(num_blocks, num_stages):
            for device_counts in compositions(num_devices, num_stages):
                plan = make_plan(partition, device_counts)
                step_time = estimator.plan_step_time(plan)
                candidate = AHDCandidate(plan=plan, step_time=step_time)
                kept.append(candidate)
                if best is None or step_time < best.step_time:
                    best = candidate
    if best is None:
        raise ScheduleError("AHD search produced no candidates")
    best.plan.metadata["estimated_step_time"] = best.step_time
    best.plan.metadata["search_space_size"] = search_space_size(num_blocks, num_devices)
    best.plan.metadata["profiling_cost_s"] = profile.profiling_cost_s
    return best, tuple(kept)


def brute_force(stage_total, num_blocks, num_devices, stage_counts):
    """Every (partition, device counts) candidate in order; the first strict minimum."""
    best = None
    for num_stages in stage_counts:
        for partition in contiguous_partitions(num_blocks, num_stages):
            for device_counts in compositions(num_devices, num_stages):
                step_time = max(
                    stage_total(group[0], len(group), replicas)
                    for group, replicas in zip(partition, device_counts)
                )
                if best is None or step_time < best[2]:
                    best = (partition, device_counts, step_time)
    return best


# --------------------------------------------------------------------- #
# Hypothesis: the memoised search picks the oracle's winner, to the bit
# --------------------------------------------------------------------- #
#: Every cell a planner can be asked about: task, dataset, server, 1-8 GPUs
#: and the profiled batch sizes.
cells = given(
    task=st.sampled_from(VALID_TASKS),
    dataset=st.sampled_from(VALID_DATASETS),
    server=st.sampled_from(VALID_SERVERS),
    num_gpus=st.integers(min_value=1, max_value=8),
    batch_size=st.sampled_from([32, 64, 128, 256, 512]),
)


class TestSearchMatchesOracle:
    @cells
    @settings(max_examples=60, deadline=None)
    def test_tr_matches_the_oracle(self, task, dataset, server, num_gpus, batch_size):
        pair, spec, data, profile, _ = cell(task, dataset, server, num_gpus, batch_size)
        args = (pair, spec, batch_size, profile, data)
        for decoupled in (False, True):
            expected = oracle_tr_plan(*args, decoupled_update=decoupled)
            actual = build_tr_plan(*args, decoupled_update=decoupled)
            assert actual.to_dict() == expected.to_dict()
            assert actual.metadata == expected.metadata

    @cells
    @settings(max_examples=60, deadline=None)
    def test_ahd_matches_the_oracle(self, task, dataset, server, num_gpus, batch_size):
        pair, spec, data, profile, _ = cell(task, dataset, server, num_gpus, batch_size)
        args = (pair, spec, batch_size, profile, data)
        oracle_best, _ = oracle_search_ahd(*args)
        result = search_ahd(*args)
        assert result.best.plan.to_dict() == oracle_best.plan.to_dict()
        assert result.best.step_time == oracle_best.step_time
        assert result.best.plan.metadata == oracle_best.plan.metadata

    def test_sixteen_gpu_cell_matches_the_oracle(self):
        # 15,504 candidates: past the hypothesis range, where the DP and
        # the enumeration differ most in work.
        pair, spec, data, profile, _ = cell(dataset="imagenet", num_gpus=16)
        args = (pair, spec, 256, profile, data)
        oracle_best, oracle_kept = oracle_search_ahd(*args)
        assert len(oracle_kept) == search_space_size(pair.num_blocks, 16) == 15504
        result = search_ahd(*args)
        assert result.best.plan.to_dict() == oracle_best.plan.to_dict()
        assert result.best.step_time == oracle_best.step_time
        assert result.best.plan.metadata == oracle_best.plan.metadata

    def test_data_load_binds_in_the_imagenet_cell(self):
        # Only block-0 stages load data, so their totals must stay apart
        # from other stages of the same size and replica count.  In this
        # cell data loading sets some candidates' step time, so a key that
        # mixed them up would change the winner.
        pair, spec, data, profile, estimator = cell(dataset="imagenet", num_gpus=8)
        oracle_best, oracle_kept = oracle_search_ahd(pair, spec, 256, profile, data)
        bound_by_loading = [
            candidate
            for candidate in oracle_kept
            if estimator.stage_estimates(candidate.plan)[0].data_load
            == candidate.step_time
        ]
        assert bound_by_loading
        result = search_ahd(pair, spec, 256, profile, data)
        assert result.best.plan.to_dict() == oracle_best.plan.to_dict()
        assert result.best.step_time == oracle_best.step_time


# --------------------------------------------------------------------- #
# Hypothesis: forced ties on synthetic stage totals
# --------------------------------------------------------------------- #
@st.composite
def tied_totals(draw):
    """(num_blocks, num_devices, stage_total) with every total in {1, 2, 3}."""
    num_blocks = draw(st.integers(min_value=1, max_value=8))
    num_devices = draw(st.integers(min_value=1, max_value=12))
    keys = [
        (first, size, replicas)
        for first in range(num_blocks)
        for size in range(1, num_blocks - first + 1)
        for replicas in range(1, num_devices + 1)
    ]
    values = draw(
        st.lists(st.sampled_from((1.0, 2.0, 3.0)), min_size=len(keys), max_size=len(keys))
    )
    table = dict(zip(keys, values))
    return num_blocks, num_devices, lambda first, size, replicas: table[first, size, replicas]


class TestTieRule:
    @given(tied_totals())
    @settings(max_examples=60, deadline=None)
    def test_ahd_mode_matches_brute_force(self, drawn):
        num_blocks, num_devices, stage_total = drawn
        stage_counts = range(1, min(num_blocks, num_devices) + 1)
        expected = brute_force(stage_total, num_blocks, num_devices, stage_counts)
        actual = bottleneck_search(stage_total, num_blocks, num_devices, stage_counts)
        assert actual == expected

    @given(tied_totals())
    @settings(max_examples=60, deadline=None)
    def test_tr_mode_matches_brute_force(self, drawn):
        # TR: one stage count, min(N, B), and one device a stage.
        num_blocks, num_devices, stage_total = drawn
        num_stages = min(num_blocks, num_devices)
        expected = brute_force(stage_total, num_blocks, num_stages, (num_stages,))
        actual = bottleneck_search(stage_total, num_blocks, num_stages, (num_stages,))
        assert actual == expected
        assert actual[1] == (1,) * num_stages

    def test_no_candidates_is_an_error(self):
        with pytest.raises(ScheduleError):
            bottleneck_search(lambda *key: 1.0, 3, 2, (3,))


# --------------------------------------------------------------------- #
# The oracle's compositions
# --------------------------------------------------------------------- #
class TestCompositions:
    def test_known_case(self):
        assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]

    def test_single_part(self):
        assert list(compositions(5, 1)) == [(5,)]

    def test_infeasible_yields_nothing(self):
        assert list(compositions(2, 3)) == []

    @given(total=st.integers(min_value=1, max_value=10), parts=st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_all_sum_to_total(self, total, parts):
        for composition in compositions(total, parts):
            assert left_sum(composition) == total
            assert all(value >= 1 for value in composition)

    @given(total=st.integers(min_value=1, max_value=12), parts=st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_count_matches_binomial(self, total, parts):
        expected = comb(total - 1, parts - 1) if total >= parts else 0
        assert len(list(compositions(total, parts))) == expected

    def test_invalid_inputs(self):
        with pytest.raises(ScheduleError):
            list(compositions(4, 0))
