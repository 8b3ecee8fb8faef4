"""Unit tests for fault models, traces and the recovery cost model."""

import math

import pytest

from repro.cluster.faults import (
    FAULT_PRESETS,
    FaultEvent,
    FaultModel,
    FaultTrace,
    RecoveryModel,
    parse_fault_spec,
    recovery_fraction,
    resolve_faults,
    strategy_is_decoupled,
)
from repro.cluster.spec import default_cluster
from repro.cluster.workload import poisson_workload
from repro.errors import ConfigurationError
from repro.parallel.registry import REGISTRY


class TestFaultEvent:
    def test_round_trip(self):
        event = FaultEvent(time=5.0, kind="preempt", node="n0", gpus=2, duration=60.0)
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_whole_node_default(self):
        assert FaultEvent(time=0.0, kind="crash", node="n0").gpus is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(time=-1.0, kind="crash", node="n0"),
            dict(time=0.0, kind="meteor", node="n0"),
            dict(time=0.0, kind="crash", node=""),
            dict(time=0.0, kind="crash", node="n0", gpus=0),
            dict(time=0.0, kind="preempt", node="n0"),  # no duration
            dict(time=0.0, kind="straggler", node="n0", duration=10.0, factor=0.5),
            dict(time=math.nan, kind="crash", node="n0"),
            dict(time=0.0, kind="preempt", node="n0", duration=math.inf),
            dict(time=0.0, kind="straggler", node="n0", duration=10.0, factor=math.nan),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultEvent(**kwargs)


class TestFaultTrace:
    def test_unsorted_events_rejected(self):
        events = (
            FaultEvent(time=10.0, kind="crash", node="n0"),
            FaultEvent(time=5.0, kind="crash", node="n1"),
        )
        with pytest.raises(ConfigurationError):
            FaultTrace(name="bad", events=events)

    def test_from_dict_sorts(self):
        payload = {
            "name": "t",
            "events": [
                {"time": 10.0, "kind": "crash", "node": "n0"},
                {"time": 5.0, "kind": "crash", "node": "n1"},
            ],
        }
        trace = FaultTrace.from_dict(payload)
        assert [event.time for event in trace] == [5.0, 10.0]

    def test_save_load_round_trip(self, tmp_path):
        trace = FaultTrace(
            name="demo",
            events=(FaultEvent(time=1.0, kind="straggler", node="n0",
                               duration=10.0, factor=2.0),),
        )
        path = trace.save(tmp_path / "trace.json")
        assert FaultTrace.load(path) == trace

    def test_describe_counts_kinds(self):
        trace = FaultTrace(
            name="demo",
            events=(
                FaultEvent(time=1.0, kind="crash", node="n0"),
                FaultEvent(time=2.0, kind="crash", node="n1"),
            ),
        )
        assert "2 crash" in trace.describe()


class TestFaultModel:
    def test_same_seed_same_trace(self):
        model = FaultModel(crash_rate=0.01, preempt_rate=0.02, straggler_rate=0.01)
        cluster = default_cluster()
        assert model.trace(cluster, 500.0, seed=3) == model.trace(cluster, 500.0, seed=3)

    def test_horizon_bounds_events(self):
        model = FaultModel(preempt_rate=0.05)
        trace = model.trace(default_cluster(), 200.0, seed=0)
        assert all(event.time < 200.0 for event in trace)

    def test_weibull_arrivals_are_deterministic_too(self):
        model = FaultModel(preempt_rate=0.05, arrival="weibull", weibull_shape=0.5)
        cluster = default_cluster()
        assert model.trace(cluster, 400.0, seed=1) == model.trace(cluster, 400.0, seed=1)

    def test_zero_rate_model_yields_empty_trace(self):
        assert len(FaultModel().trace(default_cluster(), 100.0)) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultModel(crash_rate=-1.0)
        with pytest.raises(ConfigurationError):
            FaultModel(arrival="uniform")
        with pytest.raises(ConfigurationError):
            FaultModel(straggler_factor=0.9)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "crash_rate",
            "preempt_rate",
            "straggler_rate",
            "preempt_duration",
            "straggler_duration",
            "straggler_factor",
            "weibull_shape",
            "horizon_slack",
        ],
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match="finite"):
            FaultModel(**{field: value})


class TestParseFaultSpec:
    def test_preset_lookup(self):
        model = parse_fault_spec("bursty-preemption")
        assert model is FAULT_PRESETS["bursty-preemption"]
        assert model.preempt_gpus == 2

    def test_rate_list(self):
        model = parse_fault_spec("crash:0.01,straggler:0.002")
        assert (model.crash_rate, model.straggler_rate) == (0.01, 0.002)
        assert model.preempt_rate == 0.0

    @pytest.mark.parametrize(
        "spec", ["", "meteor:0.1", "crash", "crash:abc", "crash:0", "crash:0.1,crash:0.2"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_fault_spec(spec)

    @pytest.mark.parametrize(
        "spec", ["crash:nan", "preempt:NaN", "straggler:inf", "crash:0.1,preempt:-inf"]
    )
    def test_non_finite_rates_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="finite"):
            parse_fault_spec(spec)


class TestRecoveryModel:
    def test_decoupled_strategies_lose_less(self):
        assert strategy_is_decoupled("TR+DPU+AHD")
        assert strategy_is_decoupled("LS")
        assert not strategy_is_decoupled("DP")
        assert not strategy_is_decoupled("TR")
        assert recovery_fraction("TR", 4) == 1.0
        assert recovery_fraction("TR+DPU", 4) == 0.25

    def test_strategy_without_the_attribute_is_coupled(self):
        # A strategy registered under a decoupled built-in's name, declaring
        # no ``decoupled_recovery``, recovers as a coupled gang.
        builtin = REGISTRY.get("TR+DPU")

        class Undeclared:
            name = "TR+DPU"
            requires_profile = builtin.requires_profile
            build = builtin.build

        REGISTRY.register(Undeclared(), replace=True)
        try:
            assert not strategy_is_decoupled("TR+DPU")
            assert recovery_fraction("TR+DPU", 4) == 1.0
        finally:
            REGISTRY.register(builtin, replace=True)
        assert strategy_is_decoupled("TR+DPU")

    def test_lost_seconds_is_since_last_checkpoint(self):
        model = RecoveryModel(checkpoint_interval=100.0)
        assert model.lost_seconds("DP", 4, 250.0) == 50.0
        assert model.lost_seconds("DP", 4, 0.0) == 0.0
        assert model.lost_seconds("TR+DPU+AHD", 2, 250.0) == 25.0

    def test_overheads_by_action(self):
        model = RecoveryModel()
        assert model.overhead("shrink") == model.repartition_overhead
        with pytest.raises(ConfigurationError):
            model.overhead("teleport")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RecoveryModel(checkpoint_interval=0.0)
        with pytest.raises(ConfigurationError):
            RecoveryModel(restart_overhead=-1.0)


class TestResolveFaults:
    def test_none_passes_through(self):
        workload = poisson_workload(3, rate=1.0)
        assert resolve_faults(None, default_cluster(), workload) is None

    def test_spec_string_materialises(self):
        workload = poisson_workload(3, rate=1.0)
        trace = resolve_faults("preempt:0.05", default_cluster(), workload, seed=1)
        assert isinstance(trace, FaultTrace)

    def test_trace_passes_through_unchanged(self):
        workload = poisson_workload(3, rate=1.0)
        trace = FaultTrace(name="t", events=())
        assert resolve_faults(trace, default_cluster(), workload) is trace

    def test_garbage_rejected(self):
        workload = poisson_workload(3, rate=1.0)
        with pytest.raises(ConfigurationError):
            resolve_faults(42, default_cluster(), workload)
