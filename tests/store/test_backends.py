"""Tests of the execution-backend registry and the two built-ins."""

import json

import pytest

from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.errors import ConfigurationError
from repro.store import BACKENDS, ExperimentStore, register_backend, resolve_backend
from repro.store.backends import InlineBackend, ProcessBackend


@pytest.fixture
def fast_config():
    return ExperimentConfig(task="nas", dataset="cifar10", simulated_steps=4)


class TestRegistry:
    def test_builtins_registered_in_order(self):
        assert BACKENDS.names() == ("inline", "process")

    def test_unknown_backend_names_known_set(self):
        with pytest.raises(ConfigurationError, match="known backends"):
            BACKENDS.get("slurm")

    def test_thread_backend_is_gone(self):
        # Pure-Python simulation holds the GIL, so a thread pool never beat
        # inline execution; sweeps run inline or on processes.
        with pytest.raises(ConfigurationError, match="known backends"):
            Session(backend="thread")

    def test_session_validates_backend_at_construction(self):
        with pytest.raises(ConfigurationError):
            Session(backend="no-such-backend")

    def test_resolve_accepts_duck_typed_instance(self):
        class Custom:
            name = "custom"

            def run_cells(self, session, tasks):
                return [session.run(config, strategy=s) for config, s in tasks]

        backend = resolve_backend(Custom())
        assert backend.name == "custom"

    def test_max_workers_sizes_a_fresh_process_backend(self):
        registered = BACKENDS.get("process")
        sized = resolve_backend("process", max_workers=3)
        assert isinstance(sized, ProcessBackend) and sized is not registered
        assert (sized.max_workers, registered.max_workers) == (3, None)
        assert resolve_backend(registered, 2).max_workers == 2
        assert resolve_backend("inline", 3) is BACKENDS.get("inline")
        assert resolve_backend("process") is registered

    def test_register_backend_requires_run_cells(self):
        class Broken:
            name = "broken"

        with pytest.raises(ConfigurationError, match="run_cells"):
            register_backend(Broken)

    def test_custom_backend_usable_by_sweep(self, fast_config):
        calls = []

        class Recording:
            name = "recording"

            def run_cells(self, session, tasks):
                calls.append(len(tasks))
                return [session.run(config, strategy=s) for config, s in tasks]

        sweep = Session().sweep(
            fast_config,
            batch_sizes=(128, 256),
            strategies=("DP",),
            backend=Recording(),
        )
        assert len(sweep) == 2
        assert calls == [2]


class TestBackendEquivalence:
    def test_inline_sweep_builds_each_profile_once(self, fast_config):
        session = Session()
        sweep = session.sweep(
            fast_config, batch_sizes=(128, 256), strategies=("TR", "TR+DPU")
        )
        assert len(sweep) == 2
        assert session.stats.profile_builds == 2

    def test_process_matches_inline(self, fast_config, tmp_path):
        inline = Session().sweep(
            fast_config, batch_sizes=(128, 256), strategies=("DP", "TR")
        )
        session = Session(store=tmp_path / "store")
        processed = session.sweep(
            fast_config,
            batch_sizes=(128, 256),
            strategies=("DP", "TR"),
            backend="process",
            max_workers=2,
        )
        assert inline.epoch_times() == processed.epoch_times()
        assert inline.to_json() == processed.to_json()

    def test_session_default_backend_applies(self, fast_config):
        calls = []

        class Recording(InlineBackend):
            name = "recording"

            def run_cells(self, session, tasks):
                calls.append(len(tasks))
                return super().run_cells(session, tasks)

        session = Session(backend=Recording())
        assert session.backend.name == "recording"
        sweep = session.sweep(fast_config, batch_sizes=(128, 256), strategies=("DP",))
        assert len(sweep) == 2
        assert calls == [2]


class TestProcessConcurrentWriters:
    def test_workers_write_through_one_store(self, fast_config, tmp_path):
        """Several worker processes write to the same store at once."""
        store_root = tmp_path / "store"
        session = Session(store=store_root)
        sweep = session.sweep(
            fast_config,
            batch_sizes=(128, 256),
            num_gpus=(2, 4),
            strategies=("DP", "TR"),
            backend="process",
            max_workers=4,
        )
        assert len(sweep) == 4
        # Every (cell, strategy) run record landed on disk and parses.
        store = ExperimentStore(store_root)
        run_records = [r for r in store.records() if r["kind"] == "run"]
        assert len(run_records) == 8

        # A fresh session replays the whole grid without simulating.
        warm = Session(store=store_root)
        replay = warm.sweep(
            fast_config,
            batch_sizes=(128, 256),
            num_gpus=(2, 4),
            strategies=("DP", "TR"),
        )
        assert warm.stats.runs == 0
        assert warm.stats.store_hits == 8
        assert replay.epoch_times() == sweep.epoch_times()


class TestProcessStatsPropagation:
    def test_cold_process_sweep_counts_worker_simulations(self, fast_config, tmp_path):
        """A cold process-backend run must not masquerade as a warm restart."""
        session = Session(store=tmp_path / "store")
        sweep = session.sweep(
            fast_config,
            batch_sizes=(128, 256),
            strategies=("DP", "TR"),
            backend="process",
            max_workers=2,
        )
        assert session.stats.runs == 4
        assert session.stats.store_builds == 4
        assert session.stats.store_hits == 0
        # The workers wrote every cell through the store themselves.
        for cell in sweep:
            for strategy in ("DP", "TR"):
                assert session.in_store(cell.config, strategy)

    def test_warm_process_sweep_counts_hydrations(self, fast_config, tmp_path):
        store_root = tmp_path / "store"
        Session(store=store_root).sweep(
            fast_config, batch_sizes=(128, 256), strategies=("DP",)
        )
        warm = Session(store=store_root)
        warm.sweep(
            fast_config,
            batch_sizes=(128, 256),
            strategies=("DP",),
            backend="process",
            max_workers=2,
        )
        assert warm.stats.runs == 0
        assert warm.stats.store_hits == 2


    def test_process_sweep_reports_the_workers_builds(self, fast_config):
        # Without a store the work happens only in the workers; their
        # counters still reach the parent, matching an inline sweep's.
        axes = dict(batch_sizes=(128, 256), strategies=("DP", "TR"))
        inline = Session()
        inline.sweep(fast_config, **axes)
        processed = Session()
        processed.sweep(fast_config, **axes, backend="process", max_workers=1)
        stats = processed.stats
        assert stats.runs == 4
        assert stats.plan_builds == inline.stats.plan_builds == 4
        assert stats.profile_builds == inline.stats.profile_builds > 0
        assert stats.pair_builds > 0 and stats.executor_builds > 0
        assert stats.store_builds == stats.store_hits == 0

    def test_cli_process_sweep_session_stats_are_not_zero(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sweep.json"
        argv = "sweep --task nas --dataset cifar10 --steps 4 --batch-sizes 128,256"
        argv += " --strategies DP,TR --backend process --out"
        assert main([*argv.split(), str(out)]) in (0, None)
        stats = json.loads(out.read_text())["session_stats"]
        assert stats["runs"] == 4
        assert stats["plan_builds"] == 4
        assert stats["profile_builds"] > 0


class TestBackendInstances:
    def test_process_backend_accepts_max_workers(self):
        assert ProcessBackend(max_workers=3).max_workers == 3

    def test_inline_runs_tasks_in_order(self, fast_config):
        session = Session()
        results = InlineBackend().run_cells(
            session, [(fast_config, "DP"), (fast_config, "TR+IR")]
        )
        assert [result.strategy for result in results] == ["DP", "TR+IR"]
