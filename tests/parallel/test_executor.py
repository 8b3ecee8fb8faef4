"""Tests of the schedule executor (plan -> simulated execution)."""

import pytest

from repro.errors import ScheduleError
from repro.parallel.executor import ScheduleExecutor
from repro.parallel.registry import REGISTRY
from repro.sim.metrics import BREAKDOWN_CATEGORIES


@pytest.fixture(scope="module")
def results(nas_cifar_pair, a6000_server, cifar_dataset, nas_cifar_profile):
    """Execution results of every strategy on the NAS/CIFAR-10 cell."""
    executor = ScheduleExecutor(
        pair=nas_cifar_pair, server=a6000_server, dataset=cifar_dataset, simulated_steps=6
    )
    out = {}
    for strategy in ("DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD"):
        plan = REGISTRY.get(strategy).build(
            nas_cifar_pair, a6000_server, 256, cifar_dataset, profile=nas_cifar_profile
        )
        out[strategy] = executor.execute(plan)
    return out


class TestExecutionResults:
    def test_all_strategies_produce_positive_times(self, results):
        for strategy, result in results.items():
            assert result.epoch_time > 0, strategy
            assert result.step_time > 0, strategy
            assert result.steps_per_epoch == 195

    def test_breakdown_covers_all_devices_and_categories(self, results):
        for result in results.values():
            assert set(result.breakdown) == {0, 1, 2, 3}
            for per_device in result.breakdown.values():
                assert set(per_device) == set(BREAKDOWN_CATEGORIES)
                assert all(value >= 0 for value in per_device.values())

    def test_breakdown_total_close_to_epoch_time(self, results):
        # The breakdown is scaled from a short simulated window while the
        # epoch time extrapolates the steady-state step rate, so the totals
        # agree only up to warm-up effects (~15 %).
        for strategy, result in results.items():
            for per_device in result.breakdown.values():
                assert sum(per_device.values()) == pytest.approx(result.epoch_time, rel=0.15), strategy

    def test_memory_reported_for_every_device(self, results):
        for result in results.values():
            assert set(result.peak_memory_bytes) == {0, 1, 2, 3}
            assert all(value > 0 for value in result.peak_memory_bytes.values())

    def test_dpu_not_slower_than_tr(self, results):
        # Removing the step barrier can only help.
        assert results["TR+DPU"].epoch_time <= results["TR"].epoch_time * 1.001

    def test_ahd_not_slower_than_dpu(self, results):
        assert results["TR+DPU+AHD"].epoch_time <= results["TR+DPU"].epoch_time * 1.02

    def test_pipe_bd_beats_both_baselines(self, results):
        # The paper's headline: Pipe-BD is faster than DP and LS everywhere.
        pipe_bd = results["TR+DPU+AHD"].epoch_time
        assert pipe_bd < results["DP"].epoch_time
        assert pipe_bd < results["LS"].epoch_time

    def test_tr_memory_rank0_at_least_dp(self, results):
        # Fig. 7: teacher relaying concentrates memory on rank 0.
        assert results["TR"].peak_memory_bytes[0] >= results["DP"].peak_memory_bytes[0]

    def test_describe(self, results):
        assert "TR+DPU+AHD" in results["TR+DPU+AHD"].describe()


class TestExecutorValidation:
    def test_mismatched_server_rejected(
        self, nas_cifar_pair, a6000_server, cifar_dataset, nas_cifar_profile
    ):
        from repro.hardware.server import default_a6000_server

        executor = ScheduleExecutor(
            pair=nas_cifar_pair,
            server=default_a6000_server(2),
            dataset=cifar_dataset,
            simulated_steps=6,
        )
        plan = REGISTRY.get("DP").build(
            nas_cifar_pair, a6000_server, 256, cifar_dataset, profile=nas_cifar_profile
        )
        with pytest.raises(ScheduleError):
            executor.execute(plan)

    def test_too_few_simulated_steps_rejected(self, nas_cifar_pair, a6000_server, cifar_dataset):
        with pytest.raises(ScheduleError):
            ScheduleExecutor(
                pair=nas_cifar_pair, server=a6000_server, dataset=cifar_dataset, simulated_steps=2
            )

    def test_mismatched_pair_rejected(
        self, compression_cifar_pair, nas_cifar_pair, a6000_server, cifar_dataset, nas_cifar_profile
    ):
        executor = ScheduleExecutor(
            pair=compression_cifar_pair,
            server=a6000_server,
            dataset=cifar_dataset,
            simulated_steps=6,
        )
        plan = REGISTRY.get("DP").build(
            nas_cifar_pair, a6000_server, 256, cifar_dataset, profile=nas_cifar_profile
        )
        # Same block count, so the plan is structurally accepted; execution
        # must still run (costs come from the executor's own pair).
        result = executor.execute(plan)
        assert result.epoch_time > 0
