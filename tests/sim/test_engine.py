"""Tests of the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import GraphTemplate, SimulationEngine, step_block
from repro.sim.events import TaskKind
from repro.sim.metrics import compute_breakdown
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


def _two_step_graph(duration_of):
    """Two steps of load -> teacher -> student, the student chained across steps.

    ``duration_of(kind)`` gives each task's duration; rows 0-2 are step 0.
    """
    engine = SimulationEngine()
    previous = ()
    for step in range(2):
        load = engine.add_task(
            f"load{step}", TaskKind.DATA_LOAD, "host:loader", duration_of("load"), step=step
        )
        teacher = engine.add_task(
            f"T{step}",
            TaskKind.TEACHER_FORWARD,
            device_compute(0),
            duration_of("teacher"),
            deps=(load,),
            step=step,
            device=0,
        )
        student = engine.add_task(
            f"S{step}",
            TaskKind.STUDENT_FORWARD,
            device_compute(1),
            duration_of("student"),
            deps=(teacher, *previous),
            step=step,
            device=1,
        )
        previous = (student,)
    return engine


SLOTS = {"load": 0, "teacher": 1, "student": 2}
VALUES = {"load": 0.5, "teacher": 1.25, "student": 2.0}


def _rows(trace):
    return [(record.task, record.start, record.end) for record in trace.records]


class TestGraphTemplate:
    def test_instance_runs_like_the_built_graph(self):
        template = _two_step_graph(SLOTS.get).freeze()
        assert (template.num_tasks, len(template.slot_names)) == (6, 3)
        built = _two_step_graph(VALUES.get)
        engine = template.instantiate([0.5, 1.25, 2.0])
        assert isinstance(engine, SimulationEngine)
        assert _rows(engine.run()) == _rows(built.run())
        # The run structure is shared, not rebuilt per instance.
        assert template.instantiate([1, 1, 1])._run_inputs()[0] is template.structure

    def test_more_steps_repeat_the_block(self):
        # Three steps of the frozen graph: each step's rows are the block's,
        # labelled one step later, with the block's edges shifted by 6 rows.
        template = _two_step_graph(SLOTS.get).freeze()
        built = _two_step_graph(VALUES.get)
        engine = template.instantiate([0.5, 1.25, 2.0], steps=3)
        assert engine.num_tasks == 18
        trace = engine.run()
        assert len(trace.records) == 18
        assert engine.num_tasks == len(engine.names) == len(engine.deps) == 18
        assert engine.steps[6:12].tolist() == [step + 1 for step in built.steps]
        assert engine.deps[10] == tuple(dep + 6 for dep in built.deps[4])
        assert _rows(trace)[:6] == _rows(built.run())
        with pytest.raises(IndexError):
            engine.task(18)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_invalid_value_names_the_first_task_of_its_slot(self, bad):
        template = _two_step_graph(SLOTS.get).freeze()
        with pytest.raises(ValueError, match="task 'T0' has invalid duration"):
            template.instantiate([0.5, bad, 2.0])
        with pytest.raises(ValueError) as built:
            _two_step_graph({**VALUES, "teacher": bad}.get)
        with pytest.raises(ValueError) as instantiated:
            template.instantiate([0.5, bad, bad])
        assert str(instantiated.value) == str(built.value)

    def test_instances_are_read_only(self):
        template = _two_step_graph(SLOTS.get).freeze()
        engine = template.instantiate([0.5, 1.25, 2.0])
        with pytest.raises(SimulationError, match="read-only"):
            engine.add_task("extra", TaskKind.TEACHER_FORWARD, device_compute(0), 1.0)
        assert template.num_tasks == engine.num_tasks == 6
        assert _rows(template.instantiate([0.5, 1.25, 2.0]).run()) == _rows(engine.run())

    def test_bad_templates_and_arguments_are_rejected(self):
        with pytest.raises(SimulationError, match="integer slot"):
            _two_step_graph({"load": 0, "teacher": 1, "student": 2.5}.get).freeze()
        with pytest.raises(SimulationError, match="numbered 0..k-1"):
            _two_step_graph({"load": 0, "teacher": 1, "student": 3}.get).freeze()
        template = _two_step_graph(SLOTS.get).freeze()
        with pytest.raises(SimulationError, match="3 slots"):
            template.instantiate([1.0, 1.0])
        with pytest.raises(SimulationError, match="at least one step"):
            template.instantiate([1.0, 1.0, 1.0], steps=0)


def _appended_graph(*rows):
    """An engine filled the way a template builder fills it.

    Each ``(name, slot, deps)`` row is appended to the columns directly,
    without :meth:`SimulationEngine.add_task`, so nothing is checked until
    :meth:`SimulationEngine.freeze`.
    """
    engine = SimulationEngine()
    for name, slot, deps in rows:
        engine.names.append(name)
        engine.kinds.append(TaskKind.TEACHER_FORWARD)
        engine.resources.append(device_compute(0))
        engine.durations.append(slot)
        engine.deps.append(deps)
        engine.steps.append(0)
        engine.devices.append(0)
        engine.blocks.append(-1)
        engine.metadata.append(None)
    return engine


class TestTemplateChecks:
    """Rows appended without ``add_task`` are checked once, at ``freeze``."""

    @pytest.mark.parametrize("dep", [2, 1, -1], ids=["forward", "self", "negative"])
    def test_a_bad_dependency_names_its_task(self, dep):
        engine = _appended_graph(("a", 0, ()), ("b", 1, (0, dep)), ("c", 2, (1,)))
        with pytest.raises(SimulationError) as frozen:
            engine.freeze()
        assert str(frozen.value) == (
            f"task 'b' depends on unknown task id {dep} "
            f"(only earlier tasks may be dependencies)"
        )
        # The message add_task gives for the same row.
        built = SimulationEngine()
        built.add_task("a", TaskKind.TEACHER_FORWARD, device_compute(0), 0)
        with pytest.raises(SimulationError) as added:
            built.add_task("b", TaskKind.TEACHER_FORWARD, device_compute(0), 1, deps=(0, dep))
        assert str(added.value) == str(frozen.value)

    @pytest.mark.parametrize("slot", [1.5, 0.25])
    def test_a_non_integer_slot_names_its_task(self, slot):
        engine = _appended_graph(("a", 0, ()), ("b", slot, (0,)))
        with pytest.raises(SimulationError, match=r"task 'b' has duration .*integer slot"):
            engine.freeze()

    def test_valid_appended_rows_freeze_like_added_ones(self):
        appended = _appended_graph(("a", 0, ()), ("b", 1, (0,)), ("c", 0, (0, 1)))
        template = appended.freeze()
        assert template.slot_names == ("a", "b")
        trace = template.instantiate([0.5, 2.0]).run()
        assert [(start, end) for _, start, end in trace.rows()] == [
            (0.0, 0.5),
            (0.5, 2.5),
            (2.5, 3.0),
        ]


# --------------------------------------------------------------------- #
# In-order templates: one pass in id order, checked against the heap loop
# --------------------------------------------------------------------- #
RESOURCES = (device_compute(0), device_compute(1), "host:loader", "collective:x")


@st.composite
def random_graphs(draw):
    """``(rows, values)``: a random DAG of ``(resource, slot, deps)`` rows.

    Up to four shared resources, and slot values drawn from a few
    durations (zero among them) so that starts and ends tie often.
    """
    num_resources = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 16))
    rows = []
    for row in range(num_rows):
        resource = RESOURCES[draw(st.integers(0, num_resources - 1))]
        deps = tuple(sorted(draw(st.sets(st.integers(0, row - 1), max_size=3)))) if row else ()
        rows.append((resource, row % 3, deps))
    num_slots = min(num_rows, 3)
    durations = st.sampled_from([0.0, 1.0, 2.5])
    values = draw(st.lists(durations, min_size=num_slots, max_size=num_slots))
    return rows, values


def _graph_engine(rows, duration_of):
    """An ``add_task`` engine of ``rows``; row ``i`` lasts ``duration_of(slot)``."""
    engine = SimulationEngine()
    for index, (resource, slot, deps) in enumerate(rows):
        kind = TaskKind.TEACHER_FORWARD
        engine.add_task(f"t{index}", kind, resource, duration_of(slot), deps=deps)
    return engine


def _times(trace):
    return list(trace.rows())


def _id_order_times(engine):
    """Each task in id order, once its resource is free and its dependencies ended."""
    free, ends, times = {}, [], []
    for task_id in range(engine.num_tasks):
        resource = engine.resources[task_id]
        start = max([free.get(resource, 0.0)] + [ends[dep] for dep in engine.deps[task_id]])
        end = start + engine.durations[task_id]
        free[resource] = end
        ends.append(end)
        times.append((task_id, start, end))
    return times


def _in_order_by_definition(rows):
    """For every ``a < b`` on one resource, ``a``'s deps elsewhere lie in A(b).

    G' is the dependency edges plus each resource's id-order chain; A(b)
    holds ``b``'s dependencies and all their G'-ancestors.
    """
    closure = []  # each row with its G'-ancestors
    for row, (resource, _, deps) in enumerate(rows):
        earlier = [other for other in range(row) if rows[other][0] == resource]
        ancestors = set().union(*(closure[dep] for dep in deps))
        for other in earlier:
            if any(rows[dep][0] != resource and dep not in ancestors for dep in rows[other][2]):
                return False
        chain = closure[earlier[-1]] if earlier else set()
        closure.append(ancestors | chain | {row})
    return True


def _repeated(rows, steps):
    """``steps`` copies of the rows, each step's dependencies shifted to its own rows."""
    stride = len(rows)
    return [
        (resource, slot, tuple(step * stride + dep for dep in deps))
        for step in range(steps)
        for resource, slot, deps in rows
    ]


class TestInOrderTemplates:
    """A template's instances run like the same graph built with ``add_task``.

    A frozen graph is one step of a block without lag-1 edges; its
    ``in_order`` flag holds for any number of steps, so it is the
    definition's on three steps, which decide.
    """

    @given(graph=random_graphs(), steps=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_instances_match_the_heap_loop(self, graph, steps):
        rows, values = graph
        template = _graph_engine(rows, lambda slot: slot).freeze()
        assert template.in_order == _in_order_by_definition(_repeated(rows, 3))
        built = _graph_engine(_repeated(rows, steps), values.__getitem__)
        heap = _times(built.run())
        assert _times(template.instantiate(values, steps).run()) == heap
        if template.in_order:
            assert _id_order_times(built) == heap

    def test_a_decoupled_update_graph_runs_on_the_heap_loop(self):
        # One DPU step on two replicas: the update waits on the all-reduce
        # of both students' gradients, while the next step's teacher waits
        # only on its load, so it overtakes the update on device 0.
        rows = (
            ("host:loader", 0, ()),  # 0: load, step 0
            (device_compute(0), 1, (0,)),  # 1: teacher
            (device_compute(0), 2, (1,)),  # 2: student
            (device_compute(1), 3, (0,)),  # 3: the slower replica's student
            ("collective:x", 4, (2, 3)),  # 4: all-reduce
            (device_compute(0), 5, (2, 4)),  # 5: update
            ("host:loader", 0, ()),  # 6: load, step 1
            (device_compute(0), 1, (6,)),  # 7: teacher
        )
        values = [0.5, 1.0, 1.0, 3.0, 1.0, 0.25]
        template = _graph_engine(rows, lambda slot: slot).freeze()
        assert not template.in_order
        built = _graph_engine(rows, values.__getitem__)
        heap = _times(built.run())
        assert _times(template.instantiate(values).run()) == heap
        update, teacher = heap[5], heap[7]
        assert (teacher[1], update[1]) == (2.5, 4.5)  # during the all-reduce
        assert _id_order_times(built)[7][1] == update[2] == 4.75
        # One step alone is in order, but the block repeated is not: the
        # next step's teacher overtakes the update the same way.
        assert _in_order_by_definition(rows[:6])
        assert not _graph_engine(rows[:6], lambda slot: slot).freeze().in_order


# --------------------------------------------------------------------- #
# Block runs: a one-step block run for many steps, checked row by row
# --------------------------------------------------------------------- #
@st.composite
def random_blocks(draw):
    """``(rows, steps, values)``: a random one-step block and a step count.

    Each row is ``(resource, slot, deps, carried, kind, label, device)``:
    ``deps`` are earlier rows of the same step, ``carried`` any rows of the
    previous step, and ``label`` the row's step label in step 0.
    """
    num_resources = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 6))
    rows = []
    for row in range(num_rows):
        resource = RESOURCES[draw(st.integers(0, num_resources - 1))]
        deps = tuple(sorted(draw(st.sets(st.integers(0, row - 1), max_size=2)))) if row else ()
        carried = tuple(sorted(draw(st.sets(st.integers(0, num_rows - 1), max_size=2))))
        kind = draw(st.sampled_from(list(TaskKind)))
        label = draw(st.sampled_from([-1, 0, 0, 1]))
        device = draw(st.integers(-1, 3))
        rows.append((resource, row % 3, deps, carried, kind, label, device))
    durations = st.sampled_from([0.0, 1.0, 2.5])
    values = draw(st.lists(durations, min_size=min(num_rows, 3), max_size=min(num_rows, 3)))
    return rows, draw(st.integers(1, 25)), values


def _block_template(rows):
    return GraphTemplate(
        step_block(
            names=[(f"t{index}[s", "]") for index in range(len(rows))],
            kinds=[row[4] for row in rows],
            resources=[row[0] for row in rows],
            slots=[row[1] for row in rows],
            deps=[row[2] for row in rows],
            carried=[row[3] for row in rows],
            steps=[row[5] for row in rows],
            devices=[row[6] for row in rows],
            blocks=[-1] * len(rows),
            metadata=[None] * len(rows),
        )
    )


def _stepped_engine(rows, steps, duration_of):
    """``steps`` steps of ``rows`` built with ``add_task``, each row named ``t{row}[s{step}]``."""
    engine = SimulationEngine()
    stride = len(rows)
    for step in range(steps):
        for index, (resource, slot, deps, carried, kind, label, device) in enumerate(rows):
            lagged = [(step - 1) * stride + dep for dep in carried] if step else []
            engine.add_task(
                f"t{index}[s{step}]",
                kind,
                resource,
                duration_of(slot),
                deps=[step * stride + dep for dep in deps] + lagged,
                step=label + step,
                device=device,
            )
    return engine


class TestBlockRuns:
    """A block run for ``k`` steps equals the ``k``-step graph built row by row.

    The built engine runs on the event loop; the block run on the one pass
    when its template is in order.  Starts, ends, records and every time
    accounting must be bit-equal.
    """

    @given(block=random_blocks())
    @settings(max_examples=300, deadline=None)
    def test_a_block_run_equals_the_row_by_row_build(self, block):
        rows, steps, values = block
        template = _block_template(rows)
        repeated = _stepped_engine(rows, 3, lambda slot: slot)
        three_steps = list(zip(repeated.resources, repeated.durations, repeated.deps))
        assert template.in_order == _in_order_by_definition(three_steps)
        run = template.instantiate(values, steps).run()
        built = _stepped_engine(rows, steps, values.__getitem__).run()
        assert _times(run) == _times(built)
        assert _rows(run) == _rows(built)
        assert compute_breakdown(run, 3) == compute_breakdown(built, 3)
        assert run.step_boundaries() == built.step_boundaries()
        for skip_first in range(4):
            assert run.steady_state_step_time(skip_first) == built.steady_state_step_time(
                skip_first
            )

    def test_rows_with_no_one_and_several_dependencies_or_dependents(self):
        # Row 0 feeds four rows and row 5 waits on three; rows 1, 2 and 3
        # have one dependent each, rows 4, 6 and 7 one dependency, and row 0
        # none in its step but the previous step's rows 5 and 7.  The
        # one-pass loop reads each row's dependencies from the block's flat
        # targets, so every count must consume exactly its own targets, in
        # step 0 (without the lag-1 ones) and every later step.
        kind = TaskKind.TEACHER_FORWARD
        rows = [
            ("host:loader", 0, (), (5, 7), kind, 0, 0),  # 0
            (device_compute(0), 1, (0,), (), kind, 0, 0),  # 1
            (device_compute(1), 1, (0,), (), kind, 0, 1),  # 2
            ("collective:x", 2, (0,), (), kind, 0, -1),  # 3
            (device_compute(0), 2, (1,), (), kind, 0, 0),  # 4
            (device_compute(1), 0, (2, 3, 4), (), kind, 0, 1),  # 5
            ("host:loader", 0, (0,), (), kind, 0, 0),  # 6
            (device_compute(0), 1, (6,), (), kind, 0, 0),  # 7
        ]
        values = [0.5, 1.0, 2.5]
        template = _block_template(rows)
        assert template.in_order
        counts = [len(deps) for _, _, deps, *_ in rows]
        dependents = [sum(row in deps for _, _, deps, *_ in rows) for row in range(len(rows))]
        assert {0, 1, 3} <= set(counts) and {0, 1, 4} <= set(dependents)
        heap = _times(_stepped_engine(rows, 1, values.__getitem__).run())
        assert heap[5][1] == max(heap[dep][2] for dep in (2, 3, 4)) == 4.0
        for steps in range(1, 5):
            built = _stepped_engine(rows, steps, values.__getitem__)
            assert _times(template.instantiate(values, steps).run()) == _times(built.run())

    def test_both_run_paths_are_exercised(self):
        # A chain on one device is in order; two replicas whose update
        # waits on an all-reduce are not.
        chain = [
            ("host:loader", 0, (), (), TaskKind.DATA_LOAD, 0, 0),
            (device_compute(0), 1, (0,), (1,), TaskKind.TEACHER_FORWARD, 0, 0),
        ]
        replicas = [
            ("host:loader", 0, (), (), TaskKind.DATA_LOAD, 0, 0),
            (device_compute(0), 1, (0,), (), TaskKind.STUDENT_FORWARD, 0, 0),
            (device_compute(1), 2, (0,), (), TaskKind.STUDENT_FORWARD, 0, 1),
            ("collective:x", 1, (1, 2), (), TaskKind.ALLREDUCE, 0, -1),
            (device_compute(0), 0, (1, 3), (), TaskKind.WEIGHT_UPDATE, 0, 0),
        ]
        for rows, in_order in ((chain, True), (replicas, False)):
            template = _block_template(rows)
            assert template.in_order is in_order
            values = [0.5, 1.0, 3.0][: len(template.slot_names)]
            run = template.instantiate(values, 12).run()
            built = _stepped_engine(rows, 12, values.__getitem__).run()
            assert _rows(run) == _rows(built)
            assert compute_breakdown(run, 2) == compute_breakdown(built, 2)
