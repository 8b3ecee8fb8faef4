"""End-to-end integration tests reproducing the paper's qualitative claims."""

import pytest

from repro.analysis.breakdown import breakdown_total, epoch_breakdown, ideal_breakdown
from repro.analysis.memory_report import average_memory_overhead
from repro.core.config import ExperimentConfig
from repro.core.session import Session

@pytest.fixture(scope="module")
def session():
    """One session for the module, so cells shared between tests simulate once."""
    return Session()


@pytest.fixture(scope="module")
def nas_cifar_suite(session):
    config = ExperimentConfig(task="nas", dataset="cifar10", simulated_steps=6)
    return session.ablation(config, ("DP", "LS", "TR", "TR+DPU", "TR+DPU+AHD"))


@pytest.fixture(scope="module")
def nas_imagenet_suite(session):
    config = ExperimentConfig(task="nas", dataset="imagenet", simulated_steps=6)
    return session.ablation(config, ("DP", "LS", "TR", "TR+DPU", "TR+DPU+AHD"))


class TestSpeedupClaims:
    def test_pipe_bd_beats_all_baselines_on_every_cell(self, session):
        # Abstract: "Pipe-BD achieves significant speedup over the
        # state-of-the-art methods on multiple use cases".
        for task in ("nas", "compression"):
            for dataset in ("cifar10", "imagenet"):
                config = ExperimentConfig(task=task, dataset=dataset, simulated_steps=6)
                suite = session.ablation(config, ("DP", "LS", "TR+DPU+AHD"))
                pipe_bd = suite.results["TR+DPU+AHD"].epoch_time
                assert pipe_bd < suite.results["DP"].epoch_time, (task, dataset)
                assert pipe_bd < suite.results["LS"].epoch_time, (task, dataset)

    def test_overall_speedup_is_multi_fold(self, nas_cifar_suite, nas_imagenet_suite):
        # The paper reports 2.37x - 7.38x; we require at least 2x on the NAS cells.
        assert nas_cifar_suite.pipe_bd_speedup() > 2.0
        assert nas_imagenet_suite.pipe_bd_speedup() > 2.0

    def test_ablation_ordering_tr_dpu_ahd(self, nas_imagenet_suite):
        # Fig. 4: each technique adds speedup, most visibly on ImageNet.
        results = nas_imagenet_suite.results
        assert results["TR"].epoch_time < results["DP"].epoch_time
        assert results["TR+DPU"].epoch_time <= results["TR"].epoch_time
        assert results["TR+DPU+AHD"].epoch_time < results["TR+DPU"].epoch_time

    def test_ahd_gain_small_on_cifar(self, nas_cifar_suite):
        # §VII-A: on CIFAR-10 the workload is already balanced with TR+DPU,
        # so AHD brings little extra benefit.
        dpu = nas_cifar_suite.results["TR+DPU"].epoch_time
        ahd = nas_cifar_suite.results["TR+DPU+AHD"].epoch_time
        assert ahd <= dpu * 1.001
        assert ahd >= dpu * 0.8

    def test_ls_beats_dp_on_cifar(self, nas_cifar_suite):
        # §VII-A: "LS performs better than DP on Cifar-10".
        assert nas_cifar_suite.results["LS"].epoch_time < nas_cifar_suite.results["DP"].epoch_time


class TestMotivationalBreakdown:
    def test_fig2_ordering_ideal_pipebd_baseline(self, nas_cifar_suite):
        config = nas_cifar_suite.config
        ideal = ideal_breakdown(
            config.build_pair(), config.build_server(), config.build_dataset(), config.batch_size
        )
        baseline = epoch_breakdown(nas_cifar_suite.results["DP"])
        pipe_bd = epoch_breakdown(nas_cifar_suite.results["TR+DPU+AHD"])
        assert breakdown_total(ideal) < breakdown_total(pipe_bd) < breakdown_total(baseline)

    def test_pipe_bd_removes_redundant_teacher_execution(self, nas_cifar_suite):
        baseline = epoch_breakdown(nas_cifar_suite.results["DP"])
        pipe_bd = epoch_breakdown(nas_cifar_suite.results["TR+DPU+AHD"])
        assert pipe_bd["teacher_exec"] < 0.6 * baseline["teacher_exec"]
        assert pipe_bd["data_load"] <= baseline["data_load"] * 1.05


class TestSchedulesAndMemory:
    def test_imagenet_first_stage_replicated(self, nas_imagenet_suite):
        # Fig. 5: the heavy ImageNet block 0 is shared across devices.
        plan = nas_imagenet_suite.results["TR+DPU+AHD"].plan
        assert plan.stages[0].num_devices >= 2

    def test_gpu_type_changes_plan_or_speedup(self, session):
        a6000 = session.ablation(
            ExperimentConfig(task="nas", dataset="imagenet", server="a6000", simulated_steps=6),
            strategies=("DP", "TR+DPU+AHD"),
        )
        ti2080 = session.ablation(
            ExperimentConfig(task="nas", dataset="imagenet", server="2080ti", simulated_steps=6),
            strategies=("DP", "TR+DPU+AHD"),
        )
        plan_a = a6000.results["TR+DPU+AHD"].plan
        plan_b = ti2080.results["TR+DPU+AHD"].plan
        different_plan = [s.block_ids for s in plan_a.stages] != [
            s.block_ids for s in plan_b.stages
        ] or [s.device_ids for s in plan_a.stages] != [s.device_ids for s in plan_b.stages]
        different_speedup = abs(a6000.pipe_bd_speedup() - ti2080.pipe_bd_speedup()) > 0.2
        assert different_plan or different_speedup

    def test_memory_overhead_moderate_and_rank0_heavy(self, nas_cifar_suite):
        # §VII-C: Pipe-BD costs a minor average memory overhead over DP, and
        # TR concentrates memory on rank 0 which AHD then relieves.
        dp = nas_cifar_suite.results["DP"]
        tr = nas_cifar_suite.results["TR"]
        ahd = nas_cifar_suite.results["TR+DPU+AHD"]
        assert tr.peak_memory_bytes[0] >= max(
            tr.peak_memory_bytes[d] for d in (1, 2, 3)
        ) * 0.99
        overhead = average_memory_overhead(ahd, dp)
        assert -0.5 < overhead < 3.0

    def test_batch_size_sensitivity_smaller_batches_bigger_speedup(self, session):
        # Fig. 6: speedups are generally larger at smaller batch sizes.
        small = session.ablation(
            ExperimentConfig(task="nas", dataset="cifar10", batch_size=128, simulated_steps=6),
            strategies=("DP", "TR+DPU+AHD"),
        )
        large = session.ablation(
            ExperimentConfig(task="nas", dataset="cifar10", batch_size=512, simulated_steps=6),
            strategies=("DP", "TR+DPU+AHD"),
        )
        assert small.pipe_bd_speedup() > large.pipe_bd_speedup() * 0.9
