"""Tests of the strategy plugin registry and user-defined strategies."""

import dataclasses

import pytest

from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.errors import ConfigurationError, ScheduleError
from repro.parallel.baseline_dp import build_dp_plan
from repro.parallel.internal_relay import build_ir_plan
from repro.parallel.registry import (
    REGISTRY,
    Strategy,
    StrategyRegistry,
    register_strategy,
)

BUILTIN_NAMES = ("DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD")


class HalfBatchDP:
    """Toy user strategy: DP at half the configured batch size."""

    name = "DP-HALF"
    requires_profile = False

    def build(self, pair, server, batch_size, dataset, profile=None):
        plan = build_dp_plan(pair, server, max(server.num_devices, batch_size // 2))
        return dataclasses.replace(plan, strategy=self.name)


@pytest.fixture
def custom_strategy():
    """Register HalfBatchDP for one test and always clean it back out."""
    register_strategy(HalfBatchDP)
    try:
        yield HalfBatchDP.name
    finally:
        REGISTRY.unregister(HalfBatchDP.name)


class TestRegistry:
    def test_builtins_registered_in_paper_order(self):
        assert REGISTRY.names()[:6] == BUILTIN_NAMES
        for name in BUILTIN_NAMES:
            assert name in REGISTRY
            assert isinstance(REGISTRY.get(name), Strategy)

    def test_lookup_unknown_raises_with_known_list(self):
        with pytest.raises(ConfigurationError, match="known strategies"):
            REGISTRY.get("ZeRO")

    def test_duplicate_name_rejected(self):
        registry = StrategyRegistry()
        registry.register(HalfBatchDP())
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(HalfBatchDP())
        registry.register(HalfBatchDP(), replace=True)
        assert registry.names() == (HalfBatchDP.name,)

    def test_register_validates_protocol(self):
        registry = StrategyRegistry()

        class NoName:
            requires_profile = False

            def build(self, *args, **kwargs):
                raise NotImplementedError

        with pytest.raises(ConfigurationError, match="name"):
            registry.register(NoName())

        class NoFlag:
            name = "X"

            def build(self, *args, **kwargs):
                raise NotImplementedError

        with pytest.raises(ConfigurationError, match="requires_profile"):
            registry.register(NoFlag())

    def test_unregister_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            REGISTRY.unregister("not-there")

    def test_decorator_returns_class(self):
        @register_strategy
        class Tmp:
            name = "TMP-IR"
            requires_profile = False

            def build(self, pair, server, batch_size, dataset, profile=None):
                return build_ir_plan(pair, server, batch_size)

        try:
            assert Tmp is not None and "TMP-IR" in REGISTRY
        finally:
            REGISTRY.unregister("TMP-IR")

    def test_profile_required_strategies_reject_missing_profile(
        self, nas_cifar_pair, a6000_server, cifar_dataset
    ):
        with pytest.raises(ScheduleError, match="requires a profile"):
            REGISTRY.get("TR").build(nas_cifar_pair, a6000_server, 256, cifar_dataset)


class TestRegistryViews:
    def test_all_strategies_is_live_view(self, custom_strategy):
        # names() is read at call time: a registered strategy shows up.
        assert custom_strategy in REGISTRY.names()
        assert REGISTRY.names() == BUILTIN_NAMES + (custom_strategy,)
        assert len(REGISTRY.names()) == len(BUILTIN_NAMES) + 1

    def test_all_strategies_compares_to_tuple(self):
        assert REGISTRY.names() == BUILTIN_NAMES
        assert REGISTRY.names()[0] == "DP"

    def test_requires_profile_views_registry(self, custom_strategy):
        assert not REGISTRY.get(custom_strategy).requires_profile
        assert REGISTRY.get("TR+DPU+AHD").requires_profile
        with pytest.raises(ConfigurationError):
            REGISTRY.get("not-registered")


class TestCustomStrategyEndToEnd:
    def test_build_dispatches_custom(
        self, custom_strategy, nas_cifar_pair, a6000_server, cifar_dataset
    ):
        plan = REGISTRY.get(custom_strategy).build(
            nas_cifar_pair, a6000_server, 256, cifar_dataset
        )
        assert plan.strategy == custom_strategy
        assert plan.batch_size == 128

    def test_config_accepts_custom_strategy(self, custom_strategy):
        config = ExperimentConfig(strategy=custom_strategy, simulated_steps=4)
        assert config.strategy == custom_strategy

    def test_session_run_and_sweep_with_custom_strategy(self, custom_strategy):
        session = Session()
        config = ExperimentConfig(simulated_steps=4)
        result = session.run(config, strategy=custom_strategy)
        assert result.strategy == custom_strategy
        assert result.epoch_time > 0

        sweep = session.sweep(
            config, batch_sizes=(128, 256), strategies=("DP", custom_strategy)
        )
        table = sweep.speedup_table("DP")
        assert len(table) == 2
        for speedups in table.values():
            assert set(speedups) == {"DP", custom_strategy}
            assert speedups[custom_strategy] > 0
