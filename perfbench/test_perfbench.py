"""Tests of the benchmark's own arithmetic and input generation.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from layers import ACTIVE_SPANS, LAYERS, SELF_TIME_METRIC, Tracer, rebind, unit_of  # noqa: E402
from stats import (  # noqa: E402
    REFERENCE_PROBE_S,
    SPEED_EXPONENT,
    nearest_rank,
    probe,
    relative_iqr,
    scaled,
)


# ---------------------------------------------------------------------- #
# Percentiles
# ---------------------------------------------------------------------- #
def test_nearest_rank_picks_the_sample_at_the_rank():
    values = list(range(1, 101))  # 1..100
    assert nearest_rank(values, 50) == (50, 100, 50)
    assert nearest_rank(values, 99) == (99, 100, 1)
    assert nearest_rank(values, 100) == (100, 100, 0)


def test_nearest_rank_is_order_independent_and_counts_the_tail():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 50) == (3.0, 5, 2)
    # ceil(0.99 * 5) = 5: with five samples p99 is the maximum, nothing beyond.
    assert nearest_rank(values, 99) == (5.0, 5, 0)
    # 1100 samples leave 11 beyond p99, enough to call the tail measured.
    value, count, beyond = nearest_rank(list(range(1100)), 99)
    assert (value, count, beyond) == (1088, 1100, 11)


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


def test_relative_iqr_is_quartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles (exclusive): q1 = 2.75, q3 = 8.25, median 5.5.
    assert relative_iqr(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert relative_iqr([0.0, 0.0, 0.0]) == 0.0


def test_scaled_time_is_relative_to_the_reference_probe():
    # At the reference speed the time is unchanged; at half the probe's
    # speed (probes twice as long) the work counts 0.5 ** SPEED_EXPONENT.
    assert scaled(3.0, [REFERENCE_PROBE_S]) == pytest.approx(3.0)
    slow = 2 * REFERENCE_PROBE_S
    assert scaled(3.0, [slow, slow]) == pytest.approx(3.0 * 0.5**SPEED_EXPONENT)
    # Evenly spaced probes: half the time at the reference speed, half at
    # twice it.
    assert scaled(3.0, [REFERENCE_PROBE_S, REFERENCE_PROBE_S / 2]) == pytest.approx(
        1.5 + 1.5 * 2.0**SPEED_EXPONENT
    )


def test_probe_times_its_loop_on_the_given_clock():
    ticks = iter([10.0, 10.25])
    assert probe(clock=lambda: next(ticks)) == 0.25


def test_repeats_depend_on_seconds_only():
    assert inputs.repeats("plan-cold", 10) == 1
    assert inputs.repeats("plan-cold", 24) == 3
    # serve-warm never makes fewer than 5000 requests, for a measured p99.
    assert inputs.repeats("serve-warm", 1) * inputs.WARM_BLOCK == 5000
    assert all(inputs.repeats(workload, 0.1) >= 1 for workload in inputs.WORKLOADS)


# ---------------------------------------------------------------------- #
# Self time with nested wrappers
# ---------------------------------------------------------------------- #
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("sim.run", lambda: clock.advance(2.0))

    def middle():
        clock.advance(1.0)
        leaf()
        leaf()

    middle = tracer.wrap("parallel.execute", middle)

    def top():
        clock.advance(0.5)
        middle()
        clock.advance(0.25)

    top = tracer.wrap("core.run", top)
    top()

    spans = tracer.spans
    assert (spans["sim.run"].calls, spans["sim.run"].total_s) == (2, 4.0)
    assert spans["sim.run"].self_s == 4.0
    assert (spans["parallel.execute"].total_s, spans["parallel.execute"].self_s) == (5.0, 1.0)
    assert (spans["core.run"].total_s, spans["core.run"].self_s) == (5.75, 0.75)
    # Self times partition the outermost span exactly.
    assert tracer.self_total_s() == 5.75
    assert tracer.metrics(5.75)["trace.coverage"] == 1.0


def test_siblings_and_exceptions_keep_the_stack_balanced():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fail():
        clock.advance(1.0)
        raise RuntimeError("boom")

    failing = tracer.wrap("store.put", fail)
    ok = tracer.wrap("store.get", lambda: clock.advance(3.0))

    def parent():
        ok()
        with pytest.raises(RuntimeError):
            failing()
        clock.advance(0.5)

    tracer.wrap("serve.dispatch", parent)()
    assert tracer.spans["serve.dispatch"].self_s == 0.5
    assert tracer.spans["store.put"].calls == 1
    # Nothing left on the stack: a new top-level call starts clean.
    ok()
    assert tracer.spans["store.get"].self_s == 6.0
    assert tracer.self_total_s() == 7.5


def test_observe_and_before_hooks_see_each_call():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    seen = []

    def observe(args, result, elapsed, token):
        seen.append((args, result, elapsed, token))

    double = tracer.wrap(
        "core.profile", lambda x: clock.advance(x) or 2 * x, observe, lambda args: args[0] + 1
    )
    assert double(3.0) == 6.0
    assert seen == [((3.0,), 6.0, 3.0, 4.0)]


def test_layer_table_names_units_and_self_time_metrics():
    metrics = [name for row in LAYERS for name in row["metrics"]]
    assert len(metrics) == len(set(metrics))
    assert set(SELF_TIME_METRIC.values()) <= set(metrics)
    assert unit_of("sim.events_per_s") == "1/s"
    assert unit_of("cli.import_s") == "s"
    assert unit_of("store.get_ms") == "ms"
    assert unit_of("store.hit_ratio") == "ratio"
    assert unit_of("trace.coverage") == "ratio"
    assert unit_of("sim.events") == "count"
    # Everything but the two externally measured metrics comes from the tracer.
    from_tracer = set(Tracer().metrics(1.0))
    assert from_tracer == set(metrics) - {"cli.import_s", "trace.overhead_ratio"}
    assert set(ACTIVE_SPANS) == set(inputs.WORKLOADS)
    assert {name for names in ACTIVE_SPANS.values() for name in names} <= set(SELF_TIME_METRIC)


def test_silent_spans_names_expected_wrappers_that_never_ran():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.wrap("serve.dispatch", lambda: None)()
    tracer.wrap("store.get", lambda: None)  # wrapped, never called
    assert tracer.silent_spans("serve-warm") == ["store.get", "store.disk_summary"]


def test_rebind_reaches_from_import_copies(monkeypatch):
    import types

    def original():
        return "original"

    def replacement():
        return "replacement"

    home = types.ModuleType("fakepkg.home")
    home.function = original
    caller = types.ModuleType("fakepkg.caller")
    caller.copied = original  # as bound by ``from fakepkg.home import function``
    outsider = types.ModuleType("other")
    outsider.function = original
    for module in (home, caller, outsider):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    assert rebind(original, replacement, package="fakepkg") == 2
    assert home.function is replacement and caller.copied is replacement
    assert outsider.function is original


def test_benchmark_json_lists_every_layer_metric_with_its_unit():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
    assert per_layer == {
        name: unit_of(name) for row in LAYERS for name in row["metrics"]
    }
    assert [entry["name"] for entry in declared["workloads"]] == list(inputs.WORKLOADS)


# ---------------------------------------------------------------------- #
# Seeded inputs
# ---------------------------------------------------------------------- #
def test_grid_shuffle_is_a_seeded_permutation():
    grid = inputs.plan_grid()
    assert len(grid) == 1152
    assert len({tuple(sorted(body.items())) for body in grid}) == 1152
    first = inputs.shuffled_grid(7)
    assert first == inputs.shuffled_grid(7)
    assert first != inputs.shuffled_grid(8)
    assert sorted(map(repr, first)) == sorted(map(repr, grid))


def test_zipf_draws_are_seeded_and_skewed():
    draws = inputs.zipf_sequence(3, 1152, 5000)
    assert draws == inputs.zipf_sequence(3, 1152, 5000)
    assert draws != inputs.zipf_sequence(4, 1152, 5000)
    assert all(0 <= index < 1152 for index in draws)
    counts = Counter(draws).most_common()
    # The most popular cell is drawn far more often than a uniform draw
    # (5000 / 1152 ~ 4 times) and the tail still reaches many cells.
    assert counts[0][1] > 300
    assert len(counts) > 500


def test_plan_inputs_are_deterministic():
    cold = inputs.make_inputs("plan-cold", 5)
    assert cold == inputs.make_inputs("plan-cold", 5)
    assert len(cold["verify"]) == inputs.VERIFY_SAMPLE
    warm = inputs.make_inputs("serve-warm", 5)
    assert warm["grid"] == inputs.plan_grid()
    assert warm == inputs.make_inputs("serve-warm", 5)


@pytest.mark.parametrize("workload", ["fleet-reliable", "fleet-slo"])
def test_fleet_workloads_are_deterministic(workload):
    first = inputs.make_inputs(workload, 2)
    assert first == inputs.make_inputs(workload, 2)
    assert first["workloads"] != inputs.make_inputs(workload, 3)["workloads"]
    expected_fleets = (
        inputs.RELIABLE_FLEETS if workload == "fleet-reliable" else inputs.SLO_FLEETS
    )
    assert len(first["workloads"]) == expected_fleets
    sizes = {len(document["jobs"]) for document in first["workloads"]}
    expected = inputs.RELIABLE_JOBS if workload == "fleet-reliable" else inputs.SLO_JOBS
    assert sizes == {expected}
    if workload == "fleet-slo":
        assert {spec["name"] for spec in first["workloads"][0]["tenants"]} == {
            "batch",
            "prod",
        }
