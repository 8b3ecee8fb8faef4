"""Tests of experiment configuration and the strategy registry."""

import pytest

from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.errors import ConfigurationError
from repro.hardware.server import MAX_GPUS, get_server
from repro.parallel.executor import MAX_SIMULATED_STEPS
from repro.parallel.registry import ABLATION_STRATEGIES, PIPE_BD_STRATEGY, REGISTRY


class TestExperimentConfig:
    def test_defaults_match_paper_setup(self):
        config = ExperimentConfig()
        assert config.task == "nas"
        assert config.dataset == "cifar10"
        assert config.server == "a6000"
        assert config.num_gpus == 4
        assert config.batch_size == 256

    def test_materialisation(self, default_config):
        pair = default_config.build_pair()
        server = default_config.build_server()
        dataset = default_config.build_dataset()
        assert pair.task == "nas"
        assert server.num_devices == 4
        assert dataset.name == "cifar10"

    def test_with_helpers(self, default_config):
        assert default_config.with_strategy("DP").strategy == "DP"
        assert default_config.with_batch_size(128).batch_size == 128
        assert default_config.with_server("2080ti").server == "2080ti"
        assert default_config.label() == "nas/cifar10/a6000/b256"
        assert default_config.cell_label() == "nas/cifar10/a6000x4/b256"
        assert default_config.cell_key() == ("nas", "cifar10", "a6000", 4, 256)

    def test_with_server_gpu_count_handling(self, default_config):
        # None keeps the current count; an explicit count is applied.
        assert default_config.with_server("2080ti").num_gpus == 4
        assert default_config.with_server("2080ti", num_gpus=2).num_gpus == 2
        # An explicit invalid count is rejected, not silently ignored.
        with pytest.raises(ConfigurationError):
            default_config.with_server("2080ti", num_gpus=0)
        with pytest.raises(ConfigurationError):
            default_config.with_server("2080ti", num_gpus=-1)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(task="detection")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="coco")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(server="dgx")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(batch_size=2, num_gpus=4)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_gpus=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(simulated_steps=1)

    def test_size_limits_are_named_and_inclusive(self):
        with pytest.raises(ConfigurationError, match="MAX_SIMULATED_STEPS"):
            ExperimentConfig(simulated_steps=MAX_SIMULATED_STEPS + 1)
        with pytest.raises(ConfigurationError, match="MAX_GPUS"):
            ExperimentConfig(num_gpus=MAX_GPUS + 1, batch_size=256)
        with pytest.raises(ConfigurationError, match="MAX_GPUS"):
            get_server("a6000", MAX_GPUS + 1)
        config = ExperimentConfig(num_gpus=MAX_GPUS, simulated_steps=MAX_SIMULATED_STEPS)
        assert config.build_server().num_devices == MAX_GPUS

    def test_unknown_strategy_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            ExperimentConfig(strategy="ZeRO")

    def test_to_dict_round_trips_through_json(self, default_config):
        import json

        payload = json.loads(json.dumps(default_config.to_dict()))
        assert payload["strategy"] == "TR+DPU+AHD"
        assert payload["batch_size"] == 256


class TestStrategyRegistry:
    def test_all_strategies_listed(self):
        assert REGISTRY.names() == ("DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD")
        assert PIPE_BD_STRATEGY in REGISTRY.names()
        assert set(ABLATION_STRATEGIES) <= set(REGISTRY.names())

    def test_requires_profile(self):
        assert not REGISTRY.get("DP").requires_profile
        assert not REGISTRY.get("TR+IR").requires_profile
        assert REGISTRY.get("LS").requires_profile
        assert REGISTRY.get("TR+DPU+AHD").requires_profile

    def test_build_dispatch(self, nas_cifar_pair, a6000_server, cifar_dataset, nas_cifar_profile):
        for strategy in REGISTRY.names():
            plan = REGISTRY.get(strategy).build(
                nas_cifar_pair, a6000_server, 256, cifar_dataset, profile=nas_cifar_profile
            )
            assert plan.strategy == strategy
            assert plan.batch_size == 256

    def test_session_creates_profile_on_demand(self, default_config):
        session = Session()
        result = session.run(default_config, strategy="TR")
        assert result.plan.kind == "pipeline"
        assert session.stats.profile_builds == 1

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            REGISTRY.get("ZeRO")

    def test_profile_includes_full_batch(self):
        profile = Session().profile(ExperimentConfig(batch_size=192))
        assert profile.has(0, 192)
        assert profile.has(0, 48)
