"""Tests of the six strategy planners."""

import pytest

from repro.errors import ScheduleError
from repro.parallel.baseline_dp import build_dp_plan
from repro.parallel.baseline_ls import block_task_cost, build_ls_plan
from repro.parallel.hybrid import build_ahd_plan, search_ahd, search_space_size
from repro.parallel.internal_relay import build_ir_plan
from repro.parallel.teacher_relay import build_tr_plan


class TestDPBaseline:
    def test_plan_shape(self, nas_cifar_pair, a6000_server):
        plan = build_dp_plan(nas_cifar_pair, a6000_server, 256)
        assert plan.kind == "data_parallel"
        assert plan.strategy == "DP"
        assert not plan.decoupled_update
        assert plan.metadata["per_device_batch"] == 64

    def test_tiny_batch_rejected(self, nas_cifar_pair, a6000_server):
        with pytest.raises(ScheduleError):
            build_dp_plan(nas_cifar_pair, a6000_server, 2)


class TestLSBaseline:
    def test_plan_covers_blocks(self, nas_cifar_pair, a6000_server, nas_cifar_profile):
        plan = build_ls_plan(nas_cifar_pair, a6000_server, 256, nas_cifar_profile)
        assert plan.kind == "layerwise"
        covered = sorted(b for blocks in plan.device_blocks.values() for b in blocks)
        assert covered == list(range(6))

    def test_block_task_cost_includes_prefix(self, nas_cifar_pair, nas_cifar_profile):
        first = block_task_cost(nas_cifar_pair, nas_cifar_profile, 0, 256)
        last = block_task_cost(nas_cifar_pair, nas_cifar_profile, 5, 256)
        prefix = sum(nas_cifar_profile.teacher_time(b, 256) for b in range(6))
        assert last >= prefix

    def test_requires_full_batch_profile(self, nas_cifar_pair, a6000_server):
        from repro.parallel.profiler import Profiler

        narrow_profile = Profiler(nas_cifar_pair, a6000_server).profile(global_batch=64)
        with pytest.raises(ScheduleError):
            build_ls_plan(nas_cifar_pair, a6000_server, 999, narrow_profile)


class TestTeacherRelay:
    def test_one_device_per_stage(self, nas_cifar_pair, a6000_server, nas_cifar_profile, cifar_dataset):
        plan = build_tr_plan(nas_cifar_pair, a6000_server, 256, nas_cifar_profile, cifar_dataset)
        assert plan.kind == "pipeline"
        assert plan.strategy == "TR"
        assert not plan.decoupled_update
        assert plan.num_stages == 4
        assert all(stage.num_devices == 1 for stage in plan.stages)

    def test_dpu_variant_sets_flag(self, nas_cifar_pair, a6000_server, nas_cifar_profile, cifar_dataset):
        plan = build_tr_plan(
            nas_cifar_pair, a6000_server, 256, nas_cifar_profile, cifar_dataset,
            decoupled_update=True,
        )
        assert plan.strategy == "TR+DPU"
        assert plan.decoupled_update

    def test_estimated_step_time_recorded(self, nas_cifar_pair, a6000_server, nas_cifar_profile, cifar_dataset):
        plan = build_tr_plan(nas_cifar_pair, a6000_server, 256, nas_cifar_profile, cifar_dataset)
        assert plan.metadata["estimated_step_time"] > 0


class TestInternalRelay:
    def test_single_stage_all_devices(self, nas_cifar_pair, a6000_server):
        plan = build_ir_plan(nas_cifar_pair, a6000_server, 256)
        assert plan.num_stages == 1
        assert plan.stages[0].device_ids == (0, 1, 2, 3)
        assert plan.stages[0].block_ids == tuple(range(6))
        assert plan.decoupled_update

    def test_tiny_batch_rejected(self, nas_cifar_pair, a6000_server):
        with pytest.raises(ScheduleError):
            build_ir_plan(nas_cifar_pair, a6000_server, 2)


class TestAHD:
    def test_search_space_size_counts(self):
        # For B = 6 blocks and N = 4 devices:
        # sum_k C(5, k-1) * C(3, k-1) for k = 1..4 = 1 + 15 + 30 + 10 = 56.
        assert search_space_size(6, 4) == 56

    def test_best_plan_at_least_as_good_as_tr(
        self, nas_imagenet_pair, a6000_server, nas_imagenet_profile, imagenet_dataset
    ):
        from repro.parallel.estimator import StageTimeEstimator

        estimator = StageTimeEstimator(
            pair=nas_imagenet_pair,
            server=a6000_server,
            dataset=imagenet_dataset,
            profile=nas_imagenet_profile,
        )
        tr_plan = build_tr_plan(
            nas_imagenet_pair, a6000_server, 256, nas_imagenet_profile, imagenet_dataset,
            decoupled_update=True,
        )
        ahd_plan = build_ahd_plan(
            nas_imagenet_pair, a6000_server, 256, nas_imagenet_profile, imagenet_dataset
        )
        assert estimator.plan_step_time(ahd_plan) <= estimator.plan_step_time(tr_plan) + 1e-12

    def test_imagenet_schedule_splits_first_block(
        self, nas_imagenet_pair, a6000_server, nas_imagenet_profile, imagenet_dataset
    ):
        # Fig. 5c: on ImageNet the heavy first block is shared across devices.
        plan = build_ahd_plan(
            nas_imagenet_pair, a6000_server, 256, nas_imagenet_profile, imagenet_dataset
        )
        assert plan.stages[0].num_devices >= 2

    def test_search_result_is_the_estimated_best(
        self, nas_cifar_pair, a6000_server, nas_cifar_profile, cifar_dataset
    ):
        from repro.parallel.estimator import StageTimeEstimator

        result = search_ahd(
            nas_cifar_pair, a6000_server, 256, nas_cifar_profile, cifar_dataset
        )
        estimator = StageTimeEstimator(
            pair=nas_cifar_pair,
            server=a6000_server,
            dataset=cifar_dataset,
            profile=nas_cifar_profile,
        )
        # The winner's step time is its plan's max stage time, exactly.
        assert estimator.plan_step_time(result.best.plan) == result.best.step_time
        assert result.best.plan.metadata["estimated_step_time"] == result.best.step_time

    def test_metadata_records_search_space(
        self, nas_cifar_pair, a6000_server, nas_cifar_profile, cifar_dataset
    ):
        plan = build_ahd_plan(
            nas_cifar_pair, a6000_server, 256, nas_cifar_profile, cifar_dataset
        )
        assert plan.metadata["search_space_size"] == 56
        assert plan.strategy == "TR+DPU+AHD"
