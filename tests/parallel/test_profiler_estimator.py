"""Tests of the simulated profiler and the stage-time estimator."""

import pytest

from repro.errors import ConfigurationError, ScheduleError
from repro.parallel.estimator import (
    StageTimeEstimate,
    StageTimeEstimator,
    _stage_total,
    search_pipeline_plans,
    stage_assignments_from_partition,
)
from repro.parallel.plan import SchedulePlan
from repro.parallel.profiler import Profiler


class TestProfiler:
    def test_feasible_batches_are_ceil_divisions(self, nas_cifar_pair, a6000_server):
        profiler = Profiler(nas_cifar_pair, a6000_server)
        assert profiler.feasible_batches(256) == (64, 86, 128, 256)

    def test_profile_covers_all_blocks_and_batches(self, nas_cifar_profile, nas_cifar_pair):
        for block_id in range(nas_cifar_pair.num_blocks):
            for batch in nas_cifar_profile.batches():
                assert nas_cifar_profile.has(block_id, batch)

    def test_entries_are_positive_and_backward_heavier(self, nas_cifar_profile):
        entry = nas_cifar_profile.lookup(0, 256)
        assert entry.teacher_forward > 0
        assert entry.student_backward > entry.student_forward

    def test_student_step_time_includes_two_nas_rounds(self, nas_cifar_profile):
        entry = nas_cifar_profile.lookup(2, 256)
        step = nas_cifar_profile.student_step_time(2, 256)
        assert step == pytest.approx(2 * entry.student_training + entry.weight_update)

    def test_missing_entry_raises(self, nas_cifar_profile):
        with pytest.raises(ConfigurationError):
            nas_cifar_profile.lookup(0, 999)

    def test_profiling_cost_accounted(self, nas_cifar_profile):
        # The one-off profiling run (100 steps per point) has a nonzero cost
        # that the paper argues is amortised; it must be tracked.
        assert nas_cifar_profile.profiling_cost_s > 0

    def test_invalid_configuration(self, nas_cifar_pair, a6000_server):
        with pytest.raises(ConfigurationError):
            Profiler(nas_cifar_pair, a6000_server, profile_steps=0)
        with pytest.raises(ConfigurationError):
            Profiler(nas_cifar_pair, a6000_server).feasible_batches(0)


class TestStageTimeEstimator:
    @pytest.fixture()
    def estimator(self, nas_cifar_pair, a6000_server, cifar_dataset, nas_cifar_profile):
        return StageTimeEstimator(
            pair=nas_cifar_pair,
            server=a6000_server,
            dataset=cifar_dataset,
            profile=nas_cifar_profile,
        )

    def test_stage_time_components(self, estimator):
        estimate = estimator.stage_time((0, 1), num_replicas=1, global_batch=256)
        assert estimate.teacher > 0
        assert estimate.student > 0
        assert estimate.data_load > 0  # stage contains block 0
        assert estimate.allreduce == 0.0  # single replica
        assert estimate.total >= estimate.compute

    def test_replicated_stage_pays_allreduce(self, estimator):
        single = estimator.stage_time((2,), num_replicas=1, global_batch=256)
        replicated = estimator.stage_time((2,), num_replicas=2, global_batch=256)
        assert replicated.allreduce > 0
        assert single.allreduce == 0

    def test_last_stage_has_no_relay(self, estimator):
        estimate = estimator.stage_time((5,), num_replicas=1, global_batch=256)
        assert estimate.relay == 0.0

    def test_invalid_inputs(self, estimator):
        with pytest.raises(ScheduleError, match="at least one block"):
            estimator.stage_time((), num_replicas=1, global_batch=256)
        with pytest.raises(ScheduleError, match="positive"):
            estimator.stage_time((0,), num_replicas=0, global_batch=256)
        with pytest.raises(ConfigurationError, match="no profile entry"):
            estimator.stage_time((0,), num_replicas=1, global_batch=999)

    @pytest.mark.parametrize("block_ids", [(0, 2), (3, 1, 3), (2, 1), (5, 6), (-1, 0), (6,)])
    def test_rejects_stages_no_plan_can_hold(self, estimator, block_ids):
        # Like a StageAssignment, a stage is a contiguous ascending run
        # inside 0..num_blocks-1; the planner search's memo key relies on it.
        with pytest.raises(ScheduleError, match="are not contiguous"):
            estimator.stage_time(block_ids, num_replicas=1, global_batch=256)

    def test_search_totals_equal_the_checked_stage_time(self, estimator, a6000_server):
        # The planner search reads each stage total through an unchecked
        # path; it must add the same terms in the same order as the public
        # one, which keeps its checks.
        num_blocks = estimator.pair.num_blocks
        for first in range(num_blocks):
            for size in range(1, num_blocks - first + 1):
                for replicas in range(1, a6000_server.num_devices + 1):
                    blocks = tuple(range(first, first + size))
                    checked = estimator.stage_time(blocks, replicas, 256, replicas)
                    parts = estimator._stage_parts(first, first + size, replicas, 256, replicas)
                    assert StageTimeEstimate(*parts) == checked
                    assert _stage_total(*parts) == checked.total
        search_pipeline_plans(estimator, 256, a6000_server.num_devices, range(1, 5))
        for block_ids in [(0, 2), (num_blocks - 1, num_blocks), (-1, 0)]:
            with pytest.raises(ScheduleError, match="are not contiguous"):
                estimator.stage_time(block_ids, num_replicas=1, global_batch=256)

    def test_data_load_dominated_stage(
        self, nas_imagenet_pair, a6000_server, imagenet_dataset, nas_imagenet_profile
    ):
        # The loader term `overhead + loaders * max(io, cpu)` grows with the
        # loader count, so at 64 loaders the overlapped path wins the max.
        estimator = StageTimeEstimator(
            nas_imagenet_pair, a6000_server, imagenet_dataset, nas_imagenet_profile
        )
        estimate = estimator.stage_time((0,), 1, 256, concurrent_loaders=64)
        assert estimate.data_load > estimate.compute + estimate.allreduce
        assert estimate.total == estimate.data_load

    def test_every_non_final_stage_relays_under_its_compute(
        self, nas_imagenet_pair, a6000_server, imagenet_dataset, nas_imagenet_profile
    ):
        # The relay overlaps with compute; even ImageNet's largest boundary
        # activation moves faster than one block computes.
        estimator = StageTimeEstimator(
            nas_imagenet_pair, a6000_server, imagenet_dataset, nas_imagenet_profile
        )
        for block in range(nas_imagenet_pair.num_blocks - 1):
            estimate = estimator.stage_time((block,), 1, 256)
            assert 0.0 < estimate.relay < estimate.total

    def test_plan_step_time_is_max_stage(self, estimator, nas_cifar_pair, a6000_server):
        stages = stage_assignments_from_partition(
            [(0, 1), (2, 3), (4,), (5,)], [1, 1, 1, 1]
        )
        plan = SchedulePlan(
            kind="pipeline", strategy="TR", batch_size=256,
            num_devices=a6000_server.num_devices, num_blocks=nas_cifar_pair.num_blocks,
            stages=stages,
        )
        per_stage = estimator.stage_estimates(plan)
        assert estimator.plan_step_time(plan) == pytest.approx(
            max(estimate.total for estimate in per_stage)
        )

    def test_plan_step_time_requires_pipeline(self, estimator):
        plan = SchedulePlan(
            kind="data_parallel", strategy="DP", batch_size=256, num_devices=4, num_blocks=6
        )
        with pytest.raises(ScheduleError):
            estimator.plan_step_time(plan)


class TestStageAssignmentsBuilder:
    def test_devices_assigned_contiguously(self):
        stages = stage_assignments_from_partition([(0, 1), (2,)], [3, 1])
        assert stages[0].device_ids == (0, 1, 2)
        assert stages[1].device_ids == (3,)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ScheduleError):
            stage_assignments_from_partition([(0,)], [1, 1])

    def test_zero_devices_rejected(self):
        with pytest.raises(ScheduleError):
            stage_assignments_from_partition([(0,), (1,)], [1, 0])
