"""Tests of the schedule plan representation."""

import pytest

from repro.errors import ScheduleError
from repro.parallel.plan import (
    SchedulePlan,
    StageAssignment,
    by_device,
    jsonable,
    plan_from_dict,
)


def _pipeline_plan(decoupled=True):
    stages = (
        StageAssignment(stage_id=0, block_ids=(0, 1), device_ids=(0, 1)),
        StageAssignment(stage_id=1, block_ids=(2, 3), device_ids=(2,)),
        StageAssignment(stage_id=2, block_ids=(4, 5), device_ids=(3,)),
    )
    return SchedulePlan(
        kind="pipeline",
        strategy="TR+DPU+AHD",
        batch_size=256,
        num_devices=4,
        num_blocks=6,
        decoupled_update=decoupled,
        stages=stages,
    )


class TestStageAssignment:
    def test_valid_stage(self):
        stage = StageAssignment(stage_id=0, block_ids=(0, 1, 2), device_ids=(0, 1))
        assert stage.num_devices == 2
        assert stage.first_block == 0
        assert stage.last_block == 2

    def test_per_device_batch_ceils(self):
        stage = StageAssignment(stage_id=0, block_ids=(0,), device_ids=(0, 1, 2))
        assert stage.per_device_batch(256) == 86

    def test_non_contiguous_blocks_rejected(self):
        with pytest.raises(ScheduleError):
            StageAssignment(stage_id=0, block_ids=(0, 2), device_ids=(0,))

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            StageAssignment(stage_id=0, block_ids=(), device_ids=(0,))
        with pytest.raises(ScheduleError):
            StageAssignment(stage_id=0, block_ids=(0,), device_ids=())

    def test_duplicate_devices_rejected(self):
        with pytest.raises(ScheduleError):
            StageAssignment(stage_id=0, block_ids=(0,), device_ids=(0, 0))


class TestPipelinePlans:
    def test_valid_plan_queries(self):
        plan = _pipeline_plan()
        assert plan.num_stages == 3
        assert plan.active_devices() == (0, 1, 2, 3)

    def test_per_device_batch(self):
        plan = _pipeline_plan()
        batches = plan.per_device_batch()
        assert batches[0] == 128 and batches[1] == 128
        assert batches[2] == 256 and batches[3] == 256

    def test_describe_lists_stages(self):
        assert _pipeline_plan().describe().count("stage") >= 3

    def test_incomplete_block_coverage_rejected(self):
        stages = (StageAssignment(stage_id=0, block_ids=(0, 1), device_ids=(0,)),)
        with pytest.raises(ScheduleError):
            SchedulePlan(
                kind="pipeline", strategy="TR", batch_size=256, num_devices=4,
                num_blocks=6, stages=stages,
            )

    def test_device_reuse_rejected(self):
        stages = (
            StageAssignment(stage_id=0, block_ids=(0, 1, 2), device_ids=(0,)),
            StageAssignment(stage_id=1, block_ids=(3, 4, 5), device_ids=(0,)),
        )
        with pytest.raises(ScheduleError):
            SchedulePlan(
                kind="pipeline", strategy="TR", batch_size=256, num_devices=4,
                num_blocks=6, stages=stages,
            )

    def test_out_of_order_stages_rejected(self):
        stages = (
            StageAssignment(stage_id=0, block_ids=(3, 4, 5), device_ids=(0,)),
            StageAssignment(stage_id=1, block_ids=(0, 1, 2), device_ids=(1,)),
        )
        with pytest.raises(ScheduleError):
            SchedulePlan(
                kind="pipeline", strategy="TR", batch_size=256, num_devices=4,
                num_blocks=6, stages=stages,
            )


class TestOtherKinds:
    def test_layerwise_plan(self):
        plan = SchedulePlan(
            kind="layerwise",
            strategy="LS",
            batch_size=256,
            num_devices=4,
            num_blocks=6,
            device_blocks={0: (0, 5), 1: (1,), 2: (2, 3), 3: (4,)},
        )
        assert plan.per_device_batch()[0] == 256
        assert set(plan.active_devices()) == {0, 1, 2, 3}

    def test_layerwise_missing_blocks_rejected(self):
        with pytest.raises(ScheduleError):
            SchedulePlan(
                kind="layerwise", strategy="LS", batch_size=256, num_devices=4,
                num_blocks=6, device_blocks={0: (0, 1)},
            )

    def test_data_parallel_plan(self):
        plan = SchedulePlan(
            kind="data_parallel", strategy="DP", batch_size=256, num_devices=4, num_blocks=6
        )
        assert plan.per_device_batch()[0] == 64
        assert plan.active_devices() == (0, 1, 2, 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScheduleError):
            SchedulePlan(kind="ring", strategy="X", batch_size=1, num_devices=1, num_blocks=1)

    def test_bad_batch_rejected(self):
        with pytest.raises(ScheduleError):
            SchedulePlan(
                kind="data_parallel", strategy="DP", batch_size=0, num_devices=4, num_blocks=6
            )


class TestSerialisation:
    def test_pipeline_plan_round_trips(self):
        plan = _pipeline_plan()
        payload = plan.to_dict()
        assert payload["stages"][0] == {"block_ids": [0, 1], "device_ids": [0, 1], "stage_id": 0}
        rebuilt = plan_from_dict(payload)
        assert rebuilt == plan
        assert rebuilt.to_dict() == payload

    def test_layerwise_device_keys_come_back_as_ints(self):
        plan = SchedulePlan(
            kind="layerwise", strategy="LS", batch_size=256, num_devices=4, num_blocks=6,
            device_blocks={0: (0, 5), 1: (1,), 2: (2, 3), 3: (4,)},
        )
        payload = plan.to_dict()
        assert payload["device_blocks"] == {"0": [0, 5], "1": [1], "2": [2, 3], "3": [4]}
        rebuilt = plan_from_dict(payload)
        assert rebuilt.device_blocks == plan.device_blocks
        assert rebuilt.per_device_batch() == plan.per_device_batch()

    def test_tampered_payload_is_revalidated(self):
        payload = _pipeline_plan().to_dict()
        payload["stages"].pop()  # blocks 4 and 5 lose their stage
        with pytest.raises(ScheduleError):
            plan_from_dict(payload)

    def test_by_device_keys_are_sorted_strings(self):
        assert list(by_device({2: "a", 10: "b", 1: "c"}).items()) == [
            ("1", "c"), ("10", "b"), ("2", "a"),
        ]
        assert by_device({}) == {}

    def test_jsonable_converts_nested_tuples_and_sorts_keys(self):
        value = {"z": ({"b": (1, 2), "a": None},), "a": [(3,)]}
        converted = jsonable(value)
        assert converted == {"a": [[3]], "z": [{"a": None, "b": [1, 2]}]}
        assert list(converted) == ["a", "z"]
        assert list(converted["z"][0]) == ["a", "b"]
