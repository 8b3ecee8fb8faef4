"""Tests of the PipeBD framework, session-run cells and report formatting."""

import pytest

from repro.core.pipebd import PipeBD
from repro.core.reporting import (
    TABLE2_HEADERS,
    format_seconds,
    format_table,
    memory_table,
    model_summary_row,
    speedup_table,
    table2_row,
)
from repro.core.session import Session
from repro.errors import ConfigurationError


class TestPipeBD:
    @pytest.fixture(scope="class")
    def framework(self, nas_cifar_pair, a6000_server, cifar_dataset):
        return PipeBD(
            pair=nas_cifar_pair,
            server=a6000_server,
            dataset=cifar_dataset,
            batch_size=256,
            simulated_steps=6,
        )

    def test_initialize_produces_decoupled_pipeline(self, framework):
        plan = framework.initialize()
        assert plan.kind == "pipeline"
        assert plan.decoupled_update
        assert plan.strategy == "TR+DPU+AHD"

    def test_plan_property_lazy(self, nas_cifar_pair, a6000_server, cifar_dataset):
        framework = PipeBD(
            pair=nas_cifar_pair, server=a6000_server, dataset=cifar_dataset, batch_size=256
        )
        assert framework.plan is not None

    def test_simulate_epoch(self, framework):
        result = framework.simulate_epoch()
        assert result.epoch_time > 0
        assert result.plan.strategy == "TR+DPU+AHD"

    def test_describe_schedule(self, framework):
        assert "TR+DPU+AHD" in framework.describe_schedule()

    def test_scheduling_overhead_positive_but_small(self, framework):
        overhead = framework.scheduling_overhead_seconds()
        result = framework.simulate_epoch()
        assert overhead > 0
        # §IV-C: the one-off decision is made once at the beginning, so its
        # overhead is amortised over the entire training run (tens of epochs)
        # to a negligible fraction.
        full_training = 100 * result.epoch_time
        assert overhead < 0.05 * full_training

    def test_ablation_switches(self, nas_cifar_pair, a6000_server, cifar_dataset):
        no_ahd = PipeBD(
            pair=nas_cifar_pair, server=a6000_server, dataset=cifar_dataset,
            batch_size=256, enable_ahd=False,
        )
        plan = no_ahd.initialize()
        assert all(stage.num_devices == 1 for stage in plan.stages)
        no_dpu = PipeBD(
            pair=nas_cifar_pair, server=a6000_server, dataset=cifar_dataset,
            batch_size=256, enable_dpu=False,
        )
        assert not no_dpu.initialize().decoupled_update

    @pytest.mark.parametrize(
        "enable_ahd, strategy, metadata",
        [
            (
                True,
                "TR+DPU+AHD",
                {
                    "estimated_step_time": 0.03209384533035542,
                    "search_space_size": 56,
                    "profiling_cost_s": 24.3703867112456,
                },
            ),
            (
                False,
                "TR",
                {
                    "estimated_step_time": 0.03209384533035542,
                    "description": (
                        "contiguous block groups, one device per stage, activations relayed"
                    ),
                },
            ),
        ],
    )
    def test_dpu_off_plan_pinned(
        self, nas_cifar_pair, a6000_server, cifar_dataset, enable_ahd, strategy, metadata
    ):
        plan = PipeBD(
            pair=nas_cifar_pair, server=a6000_server, dataset=cifar_dataset,
            batch_size=256, enable_dpu=False, enable_ahd=enable_ahd,
        ).initialize()
        assert plan.strategy == strategy
        assert not plan.decoupled_update
        assert [(stage.block_ids, stage.device_ids) for stage in plan.stages] == [
            ((0,), (0,)), ((1, 2), (1,)), ((3,), (2,)), ((4, 5), (3,)),
        ]
        assert plan.metadata == metadata


class TestRunners:
    def test_run_experiment_single_cell(self, default_config):
        result = Session().run(default_config.with_strategy("TR+DPU"))
        assert result.strategy == "TR+DPU"
        assert result.epoch_time > 0

    def test_run_ablation_speedups(self, default_config):
        suite = Session().ablation(default_config, ("DP", "TR+DPU+AHD"))
        speedups = suite.speedups("DP")
        assert speedups["DP"] == pytest.approx(1.0)
        assert speedups["TR+DPU+AHD"] > 1.0
        assert suite.pipe_bd_speedup() > 1.0

    def test_missing_strategy_raises(self, default_config):
        suite = Session().ablation(default_config, ("DP",))
        with pytest.raises(ConfigurationError):
            suite.result("LS")

    def test_unknown_strategy_rejected(self, default_config):
        with pytest.raises(ConfigurationError):
            Session().ablation(default_config, ("DP", "FSDP"))

    def test_epoch_times_mapping(self, default_config):
        suite = Session().ablation(default_config, ("DP", "TR"))
        times = suite.epoch_times()
        assert set(times) == {"DP", "TR"}


class TestReporting:
    def test_format_seconds(self):
        assert format_seconds(10.23) == "10.23s"
        assert format_seconds(62 * 60 + 21) == "62m 21.0s"
        with pytest.raises(ValueError):
            format_seconds(-1)

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[2:])) <= 2

    def test_format_table_validates_columns(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_speedup_and_memory_tables(self, default_config):
        suite = Session().ablation(default_config, ("DP", "TR+DPU+AHD"))
        assert "speedup" in speedup_table(suite).lower()
        assert "Max." in memory_table(suite.results)

    def test_table2_row(self, nas_cifar_pair):
        row = table2_row("NAS", "cifar10", nas_cifar_pair, {"DP": 30.0, "LS": 16.0, "TR+DPU+AHD": 10.0})
        assert len(row) == len(TABLE2_HEADERS)
        assert row[0] == "NAS"

    def test_model_summary_row(self, nas_cifar_pair, compression_cifar_pair):
        nas_summary = model_summary_row(nas_cifar_pair)
        assert nas_summary["teacher_params"] == "2.24 M"
        compression_summary = model_summary_row(compression_cifar_pair)
        assert "M" in compression_summary["student_params"]
