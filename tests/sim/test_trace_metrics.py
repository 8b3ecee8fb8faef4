"""Tests of traces, resource naming and breakdown metrics."""

import json
from collections.abc import Sequence
from pathlib import Path

import pytest

from repro.analysis.schedule_viz import render_gantt
from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.events import STUDENT_EXEC_KINDS, TaskKind
from repro.sim.metrics import (
    aggregate_breakdown,
    compute_breakdown,
    device_utilization,
    resource_utilization,
)
from repro.sim.resources import (
    device_compute,
    device_link,
    host_loader,
    is_compute_resource,
    parse_device,
)


def _two_device_trace():
    """A small two-device, two-step schedule used by several tests."""
    engine = SimulationEngine()
    for step in range(2):
        load = engine.add_task(
            f"load{step}", TaskKind.DATA_LOAD, host_loader(), 0.5, step=step, device=0
        )
        teacher = engine.add_task(
            f"T{step}", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0, deps=(load,),
            step=step, device=0,
        )
        recv = engine.add_task(
            f"recv{step}", TaskKind.RECV, device_link(0, 1), 0.2, deps=(teacher,),
            step=step, device=1,
        )
        engine.add_task(
            f"S0-{step}", TaskKind.STUDENT_FORWARD, device_compute(0), 0.5, deps=(teacher,),
            step=step, device=0,
        )
        engine.add_task(
            f"S1-{step}", TaskKind.STUDENT_FORWARD, device_compute(1), 1.5, deps=(recv,),
            step=step, device=1,
        )
    return engine.run()


class TestResources:
    def test_names_roundtrip(self):
        assert parse_device(device_compute(3)) == 3
        assert is_compute_resource(device_compute(0))
        assert not is_compute_resource(host_loader())

    def test_invalid_resources(self):
        with pytest.raises(SimulationError):
            device_compute(-1)
        with pytest.raises(SimulationError):
            device_link(1, 1)
        with pytest.raises(SimulationError):
            parse_device(host_loader())


class TestTrace:
    def test_grouping_and_filtering(self):
        trace = _two_device_trace()
        by_resource = trace.by_resource()
        assert device_compute(0) in by_resource
        assert len(trace.filter(lambda r: r.kind == TaskKind.DATA_LOAD)) == 2
        assert trace.steps() == (0, 1)
        assert len(trace.for_step(0)) == 5

    def test_busy_time(self):
        trace = _two_device_trace()
        busy = trace.resource_busy_time(device_compute(0))
        assert busy == pytest.approx(2 * (1.0 + 0.5))

    def test_resource_span_and_window(self):
        trace = _two_device_trace()
        start, end = trace.resource_span(device_compute(1))
        assert end > start >= 0
        assert trace.resource_span("gpu9:compute") == (0.0, 0.0)
        windowed = trace.window(0.0, 1.0)
        assert len(windowed) >= 1

    def test_kind_time_on_resource(self):
        trace = _two_device_trace()
        per_kind = trace.kind_time_on_resource(device_compute(0))
        assert per_kind[TaskKind.TEACHER_FORWARD] == pytest.approx(2.0)

    def test_steady_state_step_time_positive(self):
        trace = _two_device_trace()
        assert trace.steady_state_step_time(skip_first=1) > 0

    def test_step_boundaries_ordered(self):
        trace = _two_device_trace()
        bounds = trace.step_boundaries()
        assert bounds[0][1] <= bounds[1][1]

    def test_step_boundaries_match_the_records(self):
        trace = _two_device_trace()
        for step, (start, end) in trace.step_boundaries().items():
            records = [record for record in trace if record.task.step == step]
            assert start == min(record.start for record in records)
            assert end == max(record.end for record in records)

    def test_sub_traces_match_record_filters(self):
        trace = _two_device_trace()
        records = list(trace)
        assert list(trace.for_step(1)) == [r for r in records if r.task.step == 1]
        assert list(trace.window(1.0, 2.0)) == [
            r for r in records if r.end > 1.0 and r.start < 2.0
        ]
        recvs = trace.filter(lambda r: r.kind == TaskKind.RECV)
        assert list(recvs) == [r for r in records if r.kind == TaskKind.RECV]
        assert recvs.makespan == max(r.end for r in records if r.kind == TaskKind.RECV)
        assert recvs.for_step(0).records[0].task.name == "recv0"
        assert len(trace.for_step(7)) == 0
        assert trace.for_step(7).makespan == 0.0


def _chain_trace(steps: int = 4, duration: float = 1.0):
    """One ``duration``-second task per step, each waiting for the last."""
    engine = SimulationEngine()
    deps = ()
    for step in range(steps):
        deps = (
            engine.add_task(
                f"t{step}", TaskKind.TEACHER_FORWARD, device_compute(0), duration,
                deps=deps, step=step,
            ),
        )
    return engine.run()


class TestSteadyStateStepTime:
    @pytest.mark.parametrize("skip_first", [0, 1, 2, 3, 4])
    def test_chain_of_one_second_steps(self, skip_first):
        # skip_first=0 used to measure from ends[-1] (the index wrapped)
        # and return 0.0.
        assert _chain_trace().steady_state_step_time(skip_first=skip_first) == 1.0

    def test_skip_nothing_measures_from_the_first_start(self):
        engine = SimulationEngine()
        engine.add_task("load", TaskKind.DATA_LOAD, host_loader(), 2.0, step=0)
        engine.add_task("a", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0, deps=(0,), step=0)
        engine.add_task("b", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0, deps=(1,), step=1)
        # Steps span [0, 3] and [3, 4]: 4 s over two steps.
        assert engine.run().steady_state_step_time(skip_first=0) == 2.0

    def test_negative_skip_rejected(self):
        with pytest.raises(ValueError, match="skip_first"):
            _chain_trace().steady_state_step_time(skip_first=-1)

    def test_unlabelled_trace_is_zero(self):
        engine = SimulationEngine()
        engine.add_task("a", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0)
        assert engine.run().steady_state_step_time(skip_first=0) == 0.0


GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def tr_result():
    """A four-GPU TR plan simulated for four steps (80 tasks)."""
    config = ExperimentConfig(
        task="nas", dataset="cifar10", server="a6000", num_gpus=4,
        batch_size=128, simulated_steps=4,
    )
    return Session().run(config, strategy="TR")


class TestRecordView:
    def test_length_builds_no_task(self, monkeypatch):
        engine = SimulationEngine()
        for index in range(6):
            engine.add_task(
                f"t{index}", TaskKind.STUDENT_FORWARD, device_compute(index % 2), 0.5,
                deps=(index - 1,) if index else (), step=index // 2, device=index % 2,
            )
        built = []
        original = engine.task

        def counting_task(task_id):
            built.append(task_id)
            return original(task_id)

        monkeypatch.setattr(engine, "task", counting_task)
        trace = engine.run()
        assert isinstance(trace.records, Sequence)
        assert not isinstance(trace.records, tuple)
        assert len(trace.records) == len(trace) == 6
        # Every columnar query stays off the records.
        trace.makespan, trace.step_boundaries(), trace.steps()
        trace.steady_state_step_time(skip_first=1)
        compute_breakdown(trace, num_devices=2)
        trace.resource_busy_time(device_compute(0))
        len(trace.for_step(1)), len(trace.window(0.0, 1.0))
        assert built == []
        # The first read builds every record once, in task-id order.
        assert trace.records[2].task.name == "t2"
        assert built == list(range(6))
        assert [record.task.task_id for record in trace] == list(range(6))
        assert built == list(range(6))

    def test_traces_compare_by_their_records(self):
        assert _two_device_trace() == _two_device_trace()
        assert hash(_two_device_trace()) == hash(_two_device_trace())
        assert _two_device_trace() != _chain_trace()
        assert _two_device_trace().for_step(0) == _two_device_trace().filter(
            lambda record: record.task.step == 0
        )

    def test_records_are_read_only(self):
        trace = _two_device_trace()
        with pytest.raises(TypeError):
            trace.records[0] = trace.records[1]
        assert not hasattr(trace.records, "append")

    def test_iteration_and_indexing_match_the_golden(self, tr_result):
        expected = json.loads((GOLDEN_DIR / "tr_records.json").read_text())
        trace = tr_result.trace

        def rows(records):
            return [[r.task.name, r.start, r.end, list(r.task.deps)] for r in records]

        assert len(trace.records) == len(expected) == 80
        assert rows(trace) == expected
        assert rows(trace.records) == expected
        assert rows(trace.records[i] for i in range(len(trace.records))) == expected
        assert rows(trace.records[-3:]) == expected[-3:]
        assert rows([trace.records[-1]]) == expected[-1:]
        assert [r.task.task_id for r in trace.records] == list(range(80))

    def test_gantt_is_unchanged(self, tr_result):
        expected = (GOLDEN_DIR / "tr_gantt.txt").read_text()
        assert render_gantt(tr_result.trace, 4, width=80) + "\n" == expected


class TestMetrics:
    def test_breakdown_covers_horizon(self):
        trace = _two_device_trace()
        breakdown = compute_breakdown(trace, num_devices=2)
        for device in (0, 1):
            total = sum(breakdown[device].values())
            assert total == pytest.approx(trace.makespan, rel=1e-6)

    def test_teacher_time_attributed_to_device0(self):
        trace = _two_device_trace()
        breakdown = compute_breakdown(trace, num_devices=2)
        assert breakdown[0]["teacher_exec"] == pytest.approx(2.0)
        assert breakdown[1]["teacher_exec"] == 0.0

    def test_aggregate_breakdown_sums(self):
        trace = _two_device_trace()
        breakdown = compute_breakdown(trace, num_devices=2)
        totals = aggregate_breakdown(breakdown)
        assert totals["teacher_exec"] == pytest.approx(2.0)

    def test_utilization_bounded(self):
        trace = _two_device_trace()
        utilizations = resource_utilization(trace, [device_compute(0), device_compute(1)])
        for value in utilizations.values():
            assert 0.0 <= value <= 1.0
        per_device = device_utilization(trace, 2)
        assert set(per_device) == {0, 1}

    def test_breakdown_equals_a_sum_over_the_records(self):
        # Link and collective time, a malformed compute resource and an
        # out-of-range device label, each summed as end - start.
        engine = SimulationEngine()
        load = engine.add_task("load", TaskKind.DATA_LOAD, host_loader(), 0.25, device=0)
        teacher = engine.add_task(
            "T", TaskKind.TEACHER_FORWARD, device_compute(0), 1.5, deps=(load,), device=0
        )
        recv = engine.add_task(
            "recv", TaskKind.RECV, device_link(0, 1), 0.3, deps=(teacher,), device=1
        )
        engine.add_task("S", TaskKind.STUDENT_FORWARD, "gpuX:compute", 0.7, deps=(recv,), device=1)
        engine.add_task("B", TaskKind.STUDENT_BACKWARD, device_compute(1), 0.9, deps=(recv,), device=1)
        engine.add_task("A", TaskKind.ALLREDUCE, "collective:dp", 0.4, deps=(teacher,), device=-1)
        engine.add_task("U", TaskKind.WEIGHT_UPDATE, device_compute(5), 0.1, device=5)
        engine.add_task("late-load", TaskKind.DATA_LOAD, host_loader(), 0.6, device=1)
        trace = engine.run()
        assert compute_breakdown(trace, num_devices=2) == _breakdown_from_records(trace, 2)
        assert compute_breakdown(trace, num_devices=2)[1]["comm"] == pytest.approx(0.3)
        assert compute_breakdown(trace, 2, horizon=10.0) == _breakdown_from_records(
            trace, 2, horizon=10.0
        )

    def test_zero_horizon(self):
        trace = _two_device_trace()
        assert resource_utilization(trace, [device_compute(0)], horizon=0.0) == {
            device_compute(0): 0.0
        }


def _breakdown_from_records(trace, num_devices, horizon=None):
    """The breakdown summed record by record, as a reference."""
    horizon = max(record.end for record in trace) if horizon is None else horizon
    busy = {device: dict.fromkeys(("data_load", "teacher_exec", "student_exec", "comm"), 0.0)
            for device in range(num_devices)}
    for record in trace:
        device = record.task.device
        if record.kind == TaskKind.DATA_LOAD:
            if 0 <= device < num_devices:
                busy[device]["data_load"] += record.end - record.start
            continue
        try:
            device = parse_device(record.resource)
        except Exception:
            pass
        if not 0 <= device < num_devices:
            continue
        if record.kind == TaskKind.TEACHER_FORWARD:
            busy[device]["teacher_exec"] += record.end - record.start
        elif record.kind in STUDENT_EXEC_KINDS or record.kind == TaskKind.VALIDATE:
            busy[device]["student_exec"] += record.end - record.start
        else:
            busy[device]["comm"] += record.end - record.start
    breakdown = {}
    for device, categories in busy.items():
        idle = max(0.0, horizon - (
            categories["teacher_exec"] + categories["student_exec"] + categories["comm"]
        ))
        data_wait = min(idle, categories["data_load"])
        breakdown[device] = dict(categories, data_load=data_wait, idle=idle - data_wait)
    return breakdown
