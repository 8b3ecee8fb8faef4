"""Engine-primitive microbenchmarks behind the PR-8 performance work.

Three primitives carry the simulator's hot paths, and each gets a focused
measurement here:

* **Event loop** — a synthetic pipeline task graph (every task depends on its
  predecessor on the same resource and on the same step of the previous
  resource) is executed at two fleet widths.  The candidate-heap rewrite made
  per-event cost O(log R) instead of an O(R) scan, so events/sec should be
  roughly flat in the resource count.  The deterministic ``makespan_s`` and
  task counts are gated by the ±20% perf-regression job; the events/sec
  throughput is wall-clock and stays ungated.
* **Memo fills** — a gang burst of identical jobs arriving at t=0 exercises
  the batched epoch-memo fill: one ``cluster.memo_fill`` span per drain
  instant covering every missing cell, zero spans once the memo is warm.
  Span/cell/simulation counts are gated; fill latency is recorded ungated.
* **Planner search** — one AHD search of a 4-GPU cell (a 56-candidate
  space) and one of a 32-GPU cell (376,992 candidates, ``MAX_GPUS``), each
  a device DP per block partition.  The space size and the winner's step
  time are gated, so a search that picks another winner than exhaustive
  enumeration did fails the gate; the search time is wall-clock and
  ungated.
* **Template tiling** — every plan shape of the seed-0 plan-cold grid is
  tiled from its one-step block at 5, 10 and 20 steps in one
  ``GraphTemplates`` table: one block build per shape, one tiling per step
  count.  The build, tiling and row counts are gated, so a table that builds
  a shape again or tiles more than it must fails the gate; the tiling time
  is wall-clock and ungated.

Run with the rest of the harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_primitives.py -q -s
"""

from __future__ import annotations

import gc
import importlib.util
import time
from pathlib import Path

from benchmarks.conftest import emit, emit_json
from repro.cluster import default_cluster
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.workload import JobSpec, Workload
from repro.core.config import ExperimentConfig
from repro.core.reporting import format_table
from repro.core.session import Session
from repro.obs.tracing import SpanRecorder
from repro.parallel.executor import GraphTemplates
from repro.parallel.hybrid import search_ahd
from repro.sim.engine import SimulationEngine
from repro.sim.events import TaskKind

ENGINE_WIDTHS = (8, 32)
TASKS_PER_RESOURCE = 200
BURST_JOBS = 24
TIMING_REPEATS = 5
TILING_STEPS = (5, 10, 20)
ROOT = Path(__file__).resolve().parents[1]


def _best_of(repeats, fn):
    """Minimum wall time of ``fn`` over ``repeats`` calls (first result kept)."""
    result = fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _pipeline_graph(num_resources: int) -> SimulationEngine:
    """A dense synthetic pipeline: steps chained per resource, relayed across.

    Task (step, resource) depends on (step-1, resource) and (step, resource-1),
    mirroring the dependency shape the executor emits, so the event loop sees
    realistic queue contention on every pop.
    """
    engine = SimulationEngine()
    previous_row: list = []
    for step in range(TASKS_PER_RESOURCE):
        row = []
        for res in range(num_resources):
            deps = []
            if row:
                deps.append(row[-1])
            if previous_row:
                deps.append(previous_row[res])
            row.append(
                engine.add_task(
                    name=f"t{step}.{res}",
                    kind=TaskKind.STUDENT_FORWARD,
                    resource=f"gpu{res}",
                    duration=0.001 * (1 + (step + res) % 7),
                    deps=deps,
                    step=step,
                    device=res,
                )
            )
        previous_row = row
    return engine


def test_event_engine_throughput():
    engines = {width: _pipeline_graph(width) for width in ENGINE_WIDTHS}
    traces = {width: engine.run() for width, engine in engines.items()}  # untimed warmup
    best = dict.fromkeys(ENGINE_WIDTHS, float("inf"))
    gc_was_enabled = gc.isenabled()
    gc.disable()  # collector pauses are the dominant noise at this scale
    try:
        for repeat in range(TIMING_REPEATS):
            # Alternate which width goes first so drift (cache warmth, CPU
            # frequency) biases neither side of the ratio asserted below.
            widths = ENGINE_WIDTHS if repeat % 2 == 0 else ENGINE_WIDTHS[::-1]
            for width in widths:
                start = time.perf_counter()
                engines[width].run()
                best[width] = min(best[width], time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    rows = []
    payload_runs = []
    for width in ENGINE_WIDTHS:
        trace, elapsed = traces[width], best[width]
        events = engines[width].num_tasks
        assert len(trace) == events
        rows.append(
            [
                str(width),
                str(events),
                f"{trace.makespan:.4f}",
                f"{elapsed * 1e3:.2f}",
                f"{events / elapsed:,.0f}",
            ]
        )
        payload_runs.append(
            {
                "resources": width,
                "num_tasks": events,
                "makespan_s": trace.makespan,
                "run_ms": elapsed * 1e3,
                "events_per_sec": events / elapsed,
            }
        )
    payload = {"tasks_per_resource": TASKS_PER_RESOURCE, "runs": payload_runs}
    emit_json("engine_primitives_event_loop", payload)
    emit(
        "Event engine throughput — candidate-heap loop on synthetic pipelines",
        format_table(
            ["resources", "tasks", "makespan s", "run ms", "events/s"], rows
        ),
    )
    # O(log R) per event: quadrupling the fleet must not halve throughput
    # (the old O(R) scan degraded roughly linearly in R).
    narrow, wide = payload_runs
    assert wide["events_per_sec"] > narrow["events_per_sec"] / 2.0, payload_runs


def test_memo_fill_batch_latency(session):
    jobs = tuple(
        JobSpec(
            job_id=f"burst-{index}",
            arrival_time=0.0,
            gpus=2,
            task="nas",
            dataset="cifar10",
            batch_size=128,
            strategy="TR",
            epochs=1,
            simulated_steps=4,
        )
        for index in range(BURST_JOBS)
    )
    workload = Workload(name="memo-burst", jobs=jobs)
    cluster = default_cluster()
    memo: dict = {}

    simulator = ClusterSimulator(cluster, policy="fifo", session=session, epoch_time_cache=memo)
    with SpanRecorder() as recorder:
        start = time.perf_counter()
        report = simulator.run(workload)
        cold_s = time.perf_counter() - start
    fills = [s for s in recorder.spans() if s.name == "cluster.memo_fill"]
    fill_cells = sum(s.tags["cells"] for s in fills)

    warm = ClusterSimulator(cluster, policy="fifo", session=session, epoch_time_cache=memo)
    runs_before = session.stats.runs
    with SpanRecorder() as warm_recorder:
        start = time.perf_counter()
        warm_report = warm.run(workload)
        warm_s = time.perf_counter() - start
    warm_fills = [s for s in warm_recorder.spans() if s.name == "cluster.memo_fill"]

    # One drain instant -> one span covering every missing cell; a warm memo
    # never opens a fill span or touches the simulator, and the schedule is
    # identical either way.
    assert len(fills) == 1
    assert fill_cells == simulator.simulations_run
    assert warm_fills == []
    assert session.stats.runs == runs_before
    assert warm_report.to_dict() == report.to_dict()

    payload = {
        "jobs": BURST_JOBS,
        "memo_fill_spans": len(fills),
        "memo_fill_cells": fill_cells,
        "simulations": simulator.simulations_run,
        "warm_memo_fill_spans": len(warm_fills),
        "makespan_s": report.makespan,
        "cold_ms": cold_s * 1e3,
        "warm_ms": warm_s * 1e3,
    }
    emit_json("engine_primitives_memo_fill", payload)
    emit(
        "Batched epoch-memo fills — gang burst on the default fleet",
        f"{BURST_JOBS} jobs, {len(fills)} fill span covering "
        f"{fill_cells} cells ({simulator.simulations_run} simulations); "
        f"cold {cold_s * 1e3:.1f} ms, warm {warm_s * 1e3:.1f} ms, "
        f"warm fill spans: {len(warm_fills)}",
    )


def _ahd_search_payload(session, fast_steps, num_gpus: int) -> dict:
    """Time one AHD search of the default a6000 cell at ``num_gpus`` GPUs."""
    from repro.tune.space import TuneSpace

    space = TuneSpace(
        strategies=("TR+DPU+AHD",),
        batch_sizes=(256,),
        gpu_counts=(num_gpus,),
        servers=("a6000",),
    )
    config = space.points()[0].config(fast_steps)
    pair = session.pair(config)
    server = session.server(config)
    dataset = session.dataset(config)
    profile = session.profile(config)

    def run_search():
        return search_ahd(pair, server, config.batch_size, profile, dataset)

    search_s, result = _best_of(TIMING_REPEATS, run_search)
    payload = {
        "search_space_size": result.best.plan.metadata["search_space_size"],
        "step_time_s": result.best.step_time,
        "search_ms": search_s * 1e3,
    }
    emit(
        f"AHD planner search, {num_gpus} GPUs",
        f"{payload['search_space_size']}-candidate space in {search_s * 1e3:.3f} ms "
        f"(best of {TIMING_REPEATS})",
    )
    return payload


def test_ahd_search_time(session, fast_steps):
    emit_json("engine_primitives_estimator", _ahd_search_payload(session, fast_steps, 4))


def test_ahd_search_time_32gpu(session, fast_steps):
    emit_json("engine_primitives_search_32gpu", _ahd_search_payload(session, fast_steps, 32))


def _plan_cold_shapes(seed: int) -> list:
    """The graph-template keys a session holds after the seed's plan-cold grid."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    session = Session()
    config = None
    for body in inputs.shuffled_grid(seed):
        fields = dict(body)
        config = ExperimentConfig(simulated_steps=fields.pop("steps"), **fields)
        session.run(config)
    return list(session.executor(config).templates.shapes())


def test_template_tiling():
    shapes = _plan_cold_shapes(0)
    table = GraphTemplates()
    tiled_rows = 0
    start = time.perf_counter()
    for key in shapes:
        for steps in TILING_STEPS:
            entry, rows = table.get(key, steps)
            tiled_rows += rows
    tile_s = time.perf_counter() - start
    payload = {
        "shapes": len(shapes),
        "steps": list(TILING_STEPS),
        "template_builds": table.builds,
        "template_tilings": table.tilings,
        "tiled_rows": tiled_rows,
        "num_tasks": table.num_tasks,
        "tile_ms": tile_s * 1e3,
    }
    emit_json("engine_primitives_tiling", payload)
    emit(
        "Graph templates tiled from one-step blocks (seed-0 plan-cold shapes)",
        f"{len(shapes)} shapes: {table.builds} block builds, {table.tilings} tilings, "
        f"{tiled_rows} rows tiled, {table.num_tasks} held, in {tile_s * 1e3:.1f} ms",
    )
    # Each shape's block is built once and tiled once per step count.
    assert (table.builds, table.tilings) == (len(shapes), len(shapes) * len(TILING_STEPS))
