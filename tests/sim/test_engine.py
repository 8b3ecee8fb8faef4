"""Tests of the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.events import TaskKind
from repro.sim.resources import device_compute


class TestBasics:
    def test_empty_graph(self):
        assert SimulationEngine().run().makespan == 0.0

    def test_single_task(self):
        engine = SimulationEngine()
        engine.add_task("t", TaskKind.TEACHER_FORWARD, device_compute(0), 2.5)
        trace = engine.run()
        assert trace.makespan == pytest.approx(2.5)
        assert len(trace) == 1

    @pytest.mark.parametrize("duration", [-1.0, float("nan"), float("inf")])
    def test_negative_duration_rejected(self, duration):
        # NaN used to pass the `< 0` check and surface later as a bogus
        # deadlock; inf ran to an infinite makespan.
        engine = SimulationEngine()
        with pytest.raises(ValueError, match="invalid duration"):
            engine.add_task("t", TaskKind.TEACHER_FORWARD, device_compute(0), duration)
        assert engine.num_tasks == 0

    def test_rejected_task_leaves_the_table_consistent(self):
        engine = SimulationEngine()
        engine.add_task("a", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0)
        with pytest.raises(ValueError):
            engine.add_task("b", TaskKind.STUDENT_FORWARD, device_compute(0), float("nan"))
        with pytest.raises(SimulationError):
            engine.add_task("c", TaskKind.STUDENT_FORWARD, device_compute(0), 1.0, deps=(1,))
        engine.add_task("d", TaskKind.STUDENT_FORWARD, device_compute(0), 2.0, deps=(0,))
        trace = engine.run()
        assert [record.task.name for record in trace] == ["a", "d"]
        assert trace.makespan == pytest.approx(3.0)

    def test_task_is_built_on_demand_from_its_row(self):
        engine = SimulationEngine()
        engine.add_task("a", TaskKind.DATA_LOAD, "host:loader", 0.5, step=0, device=1)
        engine.add_task(
            "b", TaskKind.TEACHER_FORWARD, device_compute(1), 1.0, deps=(0,),
            step=0, device=1, block=2, metadata={"note": "x"},
        )
        task = engine.task(1)
        assert (task.task_id, task.name, task.kind, task.resource) == (
            1, "b", TaskKind.TEACHER_FORWARD, device_compute(1)
        )
        assert (task.duration, task.deps, task.step, task.device, task.block) == (
            1.0, (0,), 0, 1, 2
        )
        assert task.metadata == {"note": "x"}
        assert engine.task(0).metadata == {}
        assert engine.task(-1) == task
        with pytest.raises(IndexError):
            engine.task(2)

    def test_forward_dependency_only(self):
        engine = SimulationEngine()
        engine.add_task("a", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0)
        with pytest.raises(SimulationError):
            engine.add_task("b", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0, deps=(5,))


class TestScheduling:
    def test_same_resource_serialises(self):
        engine = SimulationEngine()
        engine.add_task("a", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0)
        engine.add_task("b", TaskKind.STUDENT_FORWARD, device_compute(0), 2.0)
        trace = engine.run()
        assert trace.makespan == pytest.approx(3.0)

    def test_different_resources_parallel(self):
        engine = SimulationEngine()
        engine.add_task("a", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0)
        engine.add_task("b", TaskKind.TEACHER_FORWARD, device_compute(1), 2.0)
        trace = engine.run()
        assert trace.makespan == pytest.approx(2.0)

    def test_dependency_delays_start(self):
        engine = SimulationEngine()
        first = engine.add_task("a", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0)
        engine.add_task("b", TaskKind.STUDENT_FORWARD, device_compute(1), 1.0, deps=(first,))
        trace = engine.run()
        records = {record.task.name: record for record in trace}
        assert records["b"].start == pytest.approx(records["a"].end)

    def test_diamond_dependency(self):
        engine = SimulationEngine()
        root = engine.add_task("root", TaskKind.DATA_LOAD, "host:loader", 1.0)
        left = engine.add_task("left", TaskKind.TEACHER_FORWARD, device_compute(0), 2.0, deps=(root,))
        right = engine.add_task("right", TaskKind.TEACHER_FORWARD, device_compute(1), 3.0, deps=(root,))
        engine.add_task("join", TaskKind.ALLREDUCE, "collective:x", 0.5, deps=(left, right))
        trace = engine.run()
        assert trace.makespan == pytest.approx(1.0 + 3.0 + 0.5)

    def test_insertion_order_breaks_ties(self):
        engine = SimulationEngine()
        engine.add_task("first", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0)
        engine.add_task("second", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0)
        trace = engine.run()
        records = {record.task.name: record for record in trace}
        assert records["first"].start < records["second"].start


class TestProperties:
    @given(durations=st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_chain_makespan_is_sum(self, durations):
        engine = SimulationEngine()
        previous = None
        for index, duration in enumerate(durations):
            deps = (previous,) if previous is not None else ()
            previous = engine.add_task(
                f"t{index}", TaskKind.TEACHER_FORWARD, device_compute(index % 3), duration, deps=deps
            )
        trace = engine.run()
        assert trace.makespan == pytest.approx(sum(durations))

    @given(durations=st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_independent_tasks_bounded_by_sum_and_max(self, durations):
        engine = SimulationEngine()
        for index, duration in enumerate(durations):
            engine.add_task(
                f"t{index}", TaskKind.TEACHER_FORWARD, device_compute(index % 2), duration
            )
        makespan = engine.run().makespan
        assert makespan >= max(durations) - 1e-9
        assert makespan <= sum(durations) + 1e-9

    def test_every_task_scheduled_exactly_once(self):
        engine = SimulationEngine()
        for index in range(20):
            deps = (index - 1,) if index else ()
            engine.add_task(
                f"t{index}", TaskKind.STUDENT_FORWARD, device_compute(index % 4), 0.1, deps=deps
            )
        trace = engine.run()
        assert len(trace) == 20
        names = [record.task.name for record in trace]
        assert len(set(names)) == 20
