"""The memoised planner search against an un-memoised oracle.

:func:`repro.parallel.estimator.search_pipeline_plans` scores TR and AHD
candidates on stage totals memoised per search, and builds a plan only for
the winner.  The oracles below are the plain loops it replaced: they build a
:class:`SchedulePlan` for every candidate and score it with
:meth:`StageTimeEstimator.plan_step_time`.  Both sides must return the same
winner, at the same float, with the same ranked candidate list.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.config import VALID_DATASETS, VALID_SERVERS, VALID_TASKS, ExperimentConfig
from repro.core.session import Session
from repro.errors import ScheduleError
from repro.parallel.estimator import StageTimeEstimator, stage_assignments_from_partition
from repro.parallel.hybrid import AHDCandidate, search_ahd, search_space_size
from repro.parallel.partition import compositions, contiguous_partitions
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


def oracle_search_ahd(pair, server, batch_size, profile, dataset, keep_candidates=False):
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
                if keep_candidates:
                    kept.append(candidate)
                if best is None or step_time < best.step_time:
                    best = candidate
    if best is None:
        raise ScheduleError("AHD search produced no candidates")
    best.plan.metadata["estimated_step_time"] = best.step_time
    best.plan.metadata["search_space_size"] = search_space_size(num_blocks, num_devices)
    best.plan.metadata["profiling_cost_s"] = profile.profiling_cost_s
    kept.sort(key=lambda candidate: candidate.step_time)
    return best, tuple(kept)


def ranked(candidates):
    """A ranked candidate list as comparable (plan dict, step time) pairs."""
    return [(candidate.plan.to_dict(), candidate.step_time) for candidate in candidates]


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
        oracle_best, oracle_kept = oracle_search_ahd(*args, keep_candidates=True)
        result = search_ahd(*args, keep_candidates=True)
        assert result.best.plan.to_dict() == oracle_best.plan.to_dict()
        assert result.best.step_time == oracle_best.step_time
        assert result.best.plan.metadata == oracle_best.plan.metadata
        assert ranked(result.candidates) == ranked(oracle_kept)

        lean = search_ahd(*args)
        assert lean.candidates == ()
        assert lean.best.plan.to_dict() == oracle_best.plan.to_dict()
        assert lean.best.step_time == oracle_best.step_time

    def test_data_load_binds_in_the_imagenet_cell(self):
        # Only block-0 stages load data, so their memo entries must stay
        # apart from other stages of the same size and replica count.  In
        # this cell data loading sets some candidates' step time, so a key
        # that mixed them up would change the ranking.
        pair, spec, data, profile, estimator = cell(dataset="imagenet", num_gpus=8)
        result = search_ahd(pair, spec, 256, profile, data, keep_candidates=True)
        bound_by_loading = [
            candidate
            for candidate in result.candidates
            if estimator.stage_estimates(candidate.plan)[0].data_load
            == candidate.step_time
        ]
        assert bound_by_loading
        oracle_best, oracle_kept = oracle_search_ahd(
            pair, spec, 256, profile, data, keep_candidates=True
        )
        assert ranked(result.candidates) == ranked(oracle_kept)
        assert result.best.step_time == oracle_best.step_time
