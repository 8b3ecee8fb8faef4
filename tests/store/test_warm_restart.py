"""Warm-restart guarantees: a second identical workload simulates nothing.

These are the acceptance tests of the persistence layer: sweeps, tuning
runs and cluster replays backed by the same on-disk store must perform
zero discrete-event simulations the second time, asserted through
``SessionStats`` (``runs`` counts true simulations, ``store_hits`` counts
hydrations).
"""

import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.cluster.spec import default_cluster
from repro.cluster.workload import poisson_workload
from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.tune.space import TuneSpace


@pytest.fixture
def fast_config():
    return ExperimentConfig(task="nas", dataset="cifar10", simulated_steps=4)


@pytest.fixture
def store_root(tmp_path):
    return tmp_path / "store"


class TestWarmRun:
    def test_second_run_hydrates(self, fast_config, store_root):
        cold = Session(store=store_root)
        first = cold.run(fast_config)
        warm = Session(store=store_root)
        second = warm.run(fast_config)
        assert cold.stats.runs == 1 and cold.stats.store_builds == 1
        assert warm.stats.runs == 0 and warm.stats.store_hits == 1
        assert second.epoch_time == first.epoch_time
        assert second.to_dict() == first.to_dict()

    def test_hydrated_result_has_usable_plan(self, fast_config, store_root):
        Session(store=store_root).run(fast_config, strategy="TR+DPU+AHD")
        warm = Session(store=store_root).run(fast_config, strategy="TR+DPU+AHD")
        assert warm.plan.kind == "pipeline"
        assert warm.plan.num_stages >= 1
        assert warm.max_memory_gb() > 0

    def test_profile_override_bypasses_store(self, fast_config, store_root):
        from repro.core.ablation import make_profile

        session = Session(store=store_root)
        session.run(fast_config, strategy="LS")
        profile = make_profile(
            session.pair(fast_config),
            session.server(fast_config),
            fast_config.batch_size,
        )
        session.run(fast_config, strategy="LS", profile=profile)
        # The overridden run re-simulated rather than serving the record.
        assert session.stats.runs == 2
        assert session.stats.store_builds == 1

    def test_different_steps_are_different_records(self, fast_config, store_root):
        from dataclasses import replace

        session = Session(store=store_root)
        session.run(fast_config)
        session.run(replace(fast_config, simulated_steps=6))
        assert session.stats.runs == 2
        assert session.stats.store_builds == 2


class TestWarmSweep:
    def test_second_identical_sweep_simulates_nothing(self, fast_config, store_root):
        cold = Session(store=store_root)
        first = cold.sweep(
            fast_config,
            batch_sizes=(128, 256),
            strategies=("DP", "TR", "TR+DPU+AHD"),
        )
        assert cold.stats.runs == 6

        warm = Session(store=store_root)
        second = warm.sweep(
            fast_config,
            batch_sizes=(128, 256),
            strategies=("DP", "TR", "TR+DPU+AHD"),
        )
        assert warm.stats.runs == 0
        assert warm.stats.store_hits == 6
        assert warm.stats.hit_rate("store") == 1.0
        # Bit-identical payloads, not merely close ones.
        assert second.to_json() == first.to_json()

    def test_warm_sweep_builds_no_profiles(self, fast_config, store_root):
        cold = Session(store=store_root)
        cold.sweep(fast_config, batch_sizes=(128, 256), strategies=("TR",))
        warm = Session(store=store_root)
        warm.sweep(fast_config, batch_sizes=(128, 256), strategies=("TR",))
        assert warm.stats.profile_builds == 0
        assert warm.stats.executor_builds == 0

    def test_partial_overlap_simulates_only_new_cells(self, fast_config, store_root):
        Session(store=store_root).sweep(
            fast_config, batch_sizes=(128,), strategies=("DP",)
        )
        grown = Session(store=store_root)
        grown.sweep(fast_config, batch_sizes=(128, 256), strategies=("DP",))
        assert grown.stats.runs == 1
        assert grown.stats.store_hits == 1

    def test_process_backend_warm_restart(self, fast_config, store_root):
        Session(store=store_root).sweep(
            fast_config, batch_sizes=(128, 256), strategies=("TR",)
        )
        warm = Session(store=store_root)
        warm.sweep(
            fast_config,
            batch_sizes=(128, 256),
            strategies=("TR",),
            backend="process",
            max_workers=2,
        )
        assert warm.stats.runs == 0
        assert warm.stats.store_hits == 2
        # Store-warm cells never reach the parent's profile cache.
        assert warm.stats.profile_builds == 0


class TestWarmTune:
    def test_second_identical_tune_simulates_nothing(self, store_root):
        space = TuneSpace(
            strategies=("DP", "TR", "TR+DPU+AHD"),
            batch_sizes=(128, 256),
            gpu_counts=(2, 4),
        )
        cold = Session(store=store_root)
        first = cold.tune(space, budget=8, simulated_steps=4)
        assert cold.stats.runs > 0

        warm = Session(store=store_root)
        second = warm.tune(space, budget=8, simulated_steps=4)
        assert warm.stats.runs == 0
        assert warm.stats.store_hits == cold.stats.runs
        assert second.best.point == first.best.point
        assert second.best.epoch_time == first.best.epoch_time
        # The evaluator knows its measurements were replays, not fresh work.
        assert second.evaluator_stats["simulations"] == 0
        assert second.evaluator_stats["store_hydrations"] > 0

    def test_warm_tune_reuses_estimates(self, store_root):
        space = TuneSpace(
            strategies=("DP", "TR"), batch_sizes=(128, 256), gpu_counts=(2,)
        )
        cold = Session(store=store_root)
        first = cold.tune(space, budget=4, simulated_steps=4)
        assert first.evaluator_stats["estimates"] > 0
        warm = Session(store=store_root)
        second = warm.tune(space, budget=4, simulated_steps=4)
        # Every analytic estimate came back from the store: none recomputed.
        assert second.evaluator_stats["estimates"] == 0
        assert second.evaluator_stats["store_hydrations"] > 0


class TestWarmCluster:
    def test_fleet_replay_simulates_nothing(self, store_root):
        workload = poisson_workload(num_jobs=8, rate=0.5)
        cold = Session(store=store_root)
        first = ClusterSimulator(
            default_cluster(), policy="fifo", session=cold
        ).run(workload)
        assert cold.stats.runs > 0

        warm = Session(store=store_root)
        second = ClusterSimulator(
            default_cluster(), policy="fifo", session=warm
        ).run(workload)
        assert warm.stats.runs == 0
        assert warm.stats.store_hits == cold.stats.runs
        assert second.makespan == first.makespan
        assert second.to_dict() == first.to_dict()


class TestHydratedTraceGuard:
    def test_render_gantt_rejects_hydrated_result_clearly(
        self, fast_config, store_root
    ):
        from repro.analysis.schedule_viz import render_gantt
        from repro.errors import ConfigurationError

        Session(store=store_root).run(fast_config, strategy="TR+DPU+AHD")
        warm = Session(store=store_root).run(fast_config, strategy="TR+DPU+AHD")
        assert warm.trace is None
        with pytest.raises(ConfigurationError, match="not persisted"):
            render_gantt(warm.trace, num_devices=4)
