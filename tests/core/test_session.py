"""Tests of the Session facade: caching, sweeps and JSON export."""

import gc
import json
import sys
import threading
import weakref
from dataclasses import replace

import pytest

import repro.core.session as session_module
import repro.parallel.executor as executor_module
from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.errors import ConfigurationError
from repro.memo import Memo
from repro.parallel.profiler import Profiler


@pytest.fixture
def session():
    return Session()


@pytest.fixture
def fast_config():
    return ExperimentConfig(task="nas", dataset="cifar10", simulated_steps=4)


class TestSessionCaching:
    def test_pair_server_dataset_cached(self, session, fast_config):
        assert session.pair(fast_config) is session.pair(fast_config)
        assert session.server(fast_config) is session.server(fast_config)
        # A dataset descriptor is a module-level one, not a session table's.
        assert session.dataset(fast_config) is session.dataset(fast_config)
        assert session.stats.pair_builds == 1
        assert session.stats.server_builds == 1
        # The second access of each artefact is a recorded cache hit.
        assert session.stats.pair_hits == 1
        assert session.stats.server_hits == 1
        assert "dataset" not in session.stats.CACHES

    def test_executor_hits_counted(self, session, fast_config):
        session.executor(fast_config)
        session.executor(fast_config)
        session.executor(fast_config)
        assert session.stats.executor_builds == 1
        assert session.stats.executor_hits == 2

    def test_hit_counters_accumulate_across_runs(self, session, fast_config):
        session.ablation(fast_config, strategies=("TR", "TR+DPU"))
        stats = session.stats
        # One build per artefact, every later touch a hit.
        assert stats.pair_builds == 1
        assert stats.server_builds == 1
        assert stats.executor_builds == 1
        assert stats.profile_builds == 1
        assert stats.pair_hits > 0
        assert stats.server_hits > 0
        assert stats.executor_hits > 0
        assert stats.profile_hits == 1
        assert 0.0 < stats.hit_rate("pair") < 1.0
        assert stats.hit_rate("profile") == 0.5

    def test_hit_rate_of_untouched_cache_is_zero(self, session):
        assert session.stats.hit_rate("executor") == 0.0

    def test_hit_rate_rejects_unknown_cache(self, session):
        with pytest.raises(ConfigurationError, match="known caches"):
            session.stats.hit_rate("runs")

    def test_stats_to_dict_surfaces_all_counters(self, session, fast_config):
        session.run(fast_config, strategy="TR")
        payload = session.stats.to_dict()
        for counter in (
            "pair_builds",
            "pair_hits",
            "server_builds",
            "server_hits",
            "executor_builds",
            "executor_hits",
            "profile_builds",
            "profile_hits",
            "runs",
            "evictions",
        ):
            assert counter in payload
        assert not any(counter.startswith("dataset_") for counter in payload)
        assert payload["runs"] == 1
        assert payload["evictions"] == 0

    def test_profile_built_once_per_cell(self, session, fast_config):
        first = session.profile(fast_config)
        assert session.profile(fast_config) is first
        assert session.stats.profile_builds == 1
        assert session.stats.profile_hits == 1
        # A different batch size is a different cell.
        session.profile(fast_config.with_batch_size(128))
        assert session.stats.profile_builds == 2

    def test_profiler_invoked_once_per_cell_across_sweep(
        self, session, fast_config, monkeypatch
    ):
        calls = []
        original = Profiler.profile

        def counting_profile(self, *args, **kwargs):
            calls.append((self.pair.task, self.server.num_devices, args, kwargs))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Profiler, "profile", counting_profile)
        sweep = session.sweep(
            fast_config,
            batch_sizes=(64, 128, 192, 256),
            num_gpus=(2, 3, 4),
            strategies=("TR", "TR+DPU"),
        )
        # 12 cells, two profile-hungry strategies each: exactly one profiler
        # invocation per (pair, server, batch) cell.
        assert len(sweep.cells) == 12
        assert len(calls) == 12
        assert session.stats.profile_builds == 12

        # Re-running the same sweep touches the profiler zero more times.
        session.sweep(
            fast_config,
            batch_sizes=(64, 128, 192, 256),
            num_gpus=(2, 3, 4),
            strategies=("TR", "TR+DPU"),
        )
        assert len(calls) == 12

    def test_clear_drops_caches(self, session, fast_config):
        session.profile(fast_config)
        session.clear()
        session.profile(fast_config)
        assert session.stats.profile_builds == 2

    def test_run_matches_fresh_session(self, fast_config):
        warm = Session()
        warm.ablation(fast_config, strategies=("DP", "TR"))
        cached = warm.run(fast_config, strategy="TR")
        fresh = Session().run(fast_config, strategy="TR")
        assert cached.epoch_time == pytest.approx(fresh.epoch_time)
        assert cached.step_time == pytest.approx(fresh.step_time)


class TestSessionRun:
    def test_run_uses_config_strategy(self, session, fast_config):
        result = session.run(fast_config.with_strategy("DP"))
        assert result.strategy == "DP"

    def test_run_strategy_override(self, session, fast_config):
        result = session.run(fast_config, strategy="TR+IR")
        assert result.strategy == "TR+IR"

    def test_unknown_strategy_raises(self, session, fast_config):
        with pytest.raises(ConfigurationError):
            session.run(fast_config, strategy="FSDP")
        with pytest.raises(ConfigurationError):
            session.ablation(fast_config, strategies=("DP", "FSDP"))

    def test_ablation_shares_profile(self, session, fast_config):
        session.ablation(fast_config, strategies=("LS", "TR", "TR+DPU", "TR+DPU+AHD"))
        assert session.stats.profile_builds == 1


class TestSweep:
    def test_sweep_grid_shape_and_labels(self, session, fast_config):
        sweep = session.sweep(
            fast_config, batch_sizes=(128, 256), num_gpus=(2, 4), strategies=("DP", "TR")
        )
        assert len(sweep) == 4
        assert sweep.axes == {"batch_size": (128, 256), "num_gpus": (2, 4)}
        assert len(set(sweep.labels())) == 4
        cell = sweep.cell(batch_size=128, num_gpus=4)
        assert cell.config.batch_size == 128
        assert cell.config.num_gpus == 4

    def test_cell_lookup_errors(self, session, fast_config):
        sweep = session.sweep(fast_config, batch_sizes=(128, 256), strategies=("DP",))
        with pytest.raises(ConfigurationError, match="no sweep cell"):
            sweep.cell(batch_size=512)
        sweep2 = session.sweep(
            fast_config, batch_sizes=(128, 256), num_gpus=(2, 4), strategies=("DP",)
        )
        with pytest.raises(ConfigurationError, match="match"):
            sweep2.cell(batch_size=128)

    def test_parallel_sweep_matches_serial(self, fast_config):
        serial = Session().sweep(
            fast_config, batch_sizes=(128, 256), num_gpus=(2, 4), strategies=("DP", "TR")
        )
        parallel = Session().sweep(
            fast_config,
            batch_sizes=(128, 256),
            num_gpus=(2, 4),
            strategies=("DP", "TR"),
            backend="process",
            max_workers=2,
        )
        assert serial.speedup_table("DP") == parallel.speedup_table("DP")

    def test_series_and_best_cell(self, session, fast_config):
        sweep = session.sweep(
            fast_config, batch_sizes=(128, 256, 384), strategies=("DP", "TR+DPU+AHD")
        )
        series = sweep.series("TR+DPU+AHD", axis="batch_size")
        assert set(series) == {128, 256, 384}
        assert all(value > 1.0 for value in series.values())
        best = sweep.best_cell("TR+DPU+AHD")
        assert best.config.batch_size in (128, 256, 384)

    def test_empty_axes_and_strategies_rejected(self, session, fast_config):
        with pytest.raises(ConfigurationError, match="at least one strategy"):
            session.sweep(fast_config, strategies=())
        with pytest.raises(ConfigurationError, match="axis 'batch_size' is empty"):
            session.sweep(fast_config, batch_sizes=(), strategies=("DP",))

    def test_series_requires_unique_axis(self, session, fast_config):
        sweep = session.sweep(
            fast_config, batch_sizes=(128,), num_gpus=(2, 4), strategies=("DP",)
        )
        with pytest.raises(ConfigurationError, match="uniquely"):
            sweep.series("DP", axis="batch_size")

    def test_series_of_a_strategy_not_run_lists_the_strategies_run(self, session, fast_config):
        sweep = session.sweep(fast_config, batch_sizes=(128, 256), strategies=("DP", "TR"))
        with pytest.raises(
            ConfigurationError, match=r"^strategy 'LS' was not run; available: \['DP', 'TR'\]$"
        ):
            sweep.series("LS", axis="batch_size")

    def test_series_on_an_unknown_axis_lists_the_swept_axes(self, session, fast_config):
        sweep = session.sweep(fast_config, batch_sizes=(128, 256), strategies=("DP", "TR"))
        for axis in ("batch", "metadata"):  # metadata does not tell cells apart
            with pytest.raises(
                ConfigurationError,
                match=rf"^unknown sweep axis '{axis}'; swept axes: \['batch_size'\]$",
            ):
                sweep.series("TR", axis=axis)

    def test_pipe_bd_speedup_without_pipe_bd_lists_the_strategies_run(
        self, session, fast_config
    ):
        suite = session.ablation(fast_config, strategies=("DP", "TR"))
        with pytest.raises(
            ConfigurationError,
            match=r"^strategy 'TR\+DPU\+AHD' was not run; available: \['DP', 'TR'\]$",
        ):
            suite.pipe_bd_speedup()

    def test_to_dict_and_json_roundtrip(self, session, fast_config):
        sweep = session.sweep(fast_config, batch_sizes=(128, 256), strategies=("DP", "TR"))
        payload = json.loads(sweep.to_json())
        assert payload["strategies"] == ["DP", "TR"]
        assert len(payload["cells"]) == 2
        cell = payload["cells"][0]
        assert cell["config"]["batch_size"] == 128
        result = cell["results"]["TR"]
        assert result["strategy"] == "TR"
        assert result["epoch_time_s"] > 0
        assert "breakdown_s" in result and "peak_memory_gb" in result


class TestExecutionResultToDict:
    def test_to_dict_is_json_serialisable(self, session, fast_config):
        for strategy in ("DP", "LS", "TR+DPU+AHD"):
            payload = session.run(fast_config, strategy=strategy).to_dict()
            text = json.dumps(payload)
            assert strategy in text
            assert payload["steps_per_epoch"] > 0
            assert payload["max_memory_gb"] > 0


#: 210 distinct cold cells: 35 batch sizes x 2 GPU counts x 3 strategies,
#: which lower onto 6 graph-template shapes.
BOUNDED_CELLS = [
    ExperimentConfig(strategy=strategy, num_gpus=gpus, batch_size=batch, simulated_steps=4)
    for batch in range(64, 344, 8)
    for gpus in (2, 4)
    for strategy in ("LS", "TR", "TR+DPU+AHD")
]


def answer(result) -> str:
    return json.dumps(result.to_dict())


@pytest.fixture(scope="module")
def fresh_answers():
    """Each bounded cell's answer from a session of its own."""
    return {config: answer(Session().run(config)) for config in BOUNDED_CELLS}


@pytest.fixture
def small_bounds(monkeypatch):
    """Session tables of 8 entries and template tables of 4 shapes."""
    monkeypatch.setattr(session_module, "MEMO_ENTRIES", 8)
    monkeypatch.setattr(executor_module, "HELD_TEMPLATE_SHAPES", 4)


def assert_within_bounds(session):
    assert all(len(memo) <= 8 for memo in session._memos.values())
    assert len(session._templates) <= 4


class TestBoundedTables:
    def test_memo_drops_the_least_recently_used_entry(self):
        memo = Memo(2)
        memo.setdefault("a", 1)
        memo.setdefault("b", 2)
        assert memo.get("a") == 1  # a hit makes "a" the most recently used
        assert memo.setdefault("b", 20) == 2  # the first value published stays
        assert memo.setdefault("c", 3) == 3
        assert list(memo) == ["a", "c"] and memo.evictions == 1
        memo.clear()
        assert len(memo) == 0 and memo.evictions == 1

    def test_small_bounds_hold_and_answers_stay_the_same(self, small_bounds, fresh_answers):
        session = Session()
        for config in BOUNDED_CELLS:
            assert answer(session.run(config)) == fresh_answers[config]
            assert_within_bounds(session)
        assert session.stats.evictions > 0
        assert session._templates.evictions > 0
        # The first cell's plan was dropped long ago: it is planned again,
        # to the same bytes.
        builds = session.stats.plan_builds
        first = BOUNDED_CELLS[0]
        assert answer(session.run(first)) == fresh_answers[first]
        assert session.stats.plan_builds == builds + 1

    def test_warm_results_are_bounded_too(self, small_bounds, fresh_answers, tmp_path):
        session = Session(store=tmp_path / "store")
        for config in BOUNDED_CELLS:
            session.run(config)
        for config in BOUNDED_CELLS:
            assert answer(session.run(config)) == fresh_answers[config]
            assert_within_bounds(session)
        assert session.stats.store_hits == len(BOUNDED_CELLS)
        assert session.stats.runs == len(BOUNDED_CELLS)
        memos = [*session._memos.values(), session._templates]
        assert session.stats.evictions == sum(memo.evictions for memo in memos)
        assert session._memos["store"].evictions > 0
        assert session._memos["warm_cell"].evictions > 0

    def test_a_dropped_warm_result_is_freed(self, monkeypatch, tmp_path):
        # The (strategy, cell) table keeps the plan and peak memory the
        # step counts of a cell share, not the first result read: once the
        # store memo drops a result, nothing else holds it.
        monkeypatch.setattr(session_module, "MEMO_ENTRIES", 8)
        cells = [
            ExperimentConfig(strategy="TR", num_gpus=2, batch_size=batch, simulated_steps=4)
            for batch in range(64, 128, 8)
        ]
        later = [replace(config, simulated_steps=5) for config in cells]
        cold = Session(store=tmp_path / "store")
        for config in cells + later:
            cold.run(config)
        session = Session(store=tmp_path / "store")
        first = [weakref.ref(session.run(config)) for config in cells]
        shared = [session.run(config) for config in later]
        gc.collect()
        assert session._memos["store"].evictions == len(cells)
        assert [ref() for ref in first] == [None] * len(cells)
        # The later step counts still share one plan per cell.
        assert len(session._memos["warm_cell"]) == len(cells)
        for result, (plan, peak_memory, _) in zip(shared, session._memos["warm_cell"].values()):
            assert result.plan is plan and result.peak_memory_bytes is peak_memory

    def test_a_hit_keeps_the_entry_the_next_insert_would_drop(self, monkeypatch):
        monkeypatch.setattr(session_module, "MEMO_ENTRIES", 2)
        session = Session()
        a, b, c = (ExperimentConfig(batch_size=batch, simulated_steps=4) for batch in (64, 96, 128))
        session.run(a)
        session.run(b)
        session.run(replace(a, simulated_steps=5))  # a plan hit: "a" is now the newest
        session.run(c)  # drops "b", not "a"
        assert (session.stats.plan_builds, session.stats.plan_hits) == (3, 1)
        session.run(a)
        assert (session.stats.plan_builds, session.stats.plan_hits) == (3, 2)
        session.run(b)
        assert (session.stats.plan_builds, session.stats.plan_hits) == (4, 2)

    def test_a_kept_plan_whose_shape_was_dropped_still_executes(self, monkeypatch):
        monkeypatch.setattr(executor_module, "HELD_TEMPLATE_SHAPES", 1)
        session = Session()
        kept = ExperimentConfig(strategy="TR+DPU+AHD", simulated_steps=4)
        other = replace(kept, strategy="LS")
        session.run(kept)
        session.run(other)  # its shape drops the kept plan's
        templates = session._templates
        assert (len(templates), templates.evictions, templates.builds) == (1, 1, 2)
        again = replace(kept, simulated_steps=6)
        assert answer(session.run(again)) == answer(Session().run(again))
        assert session.stats.plan_hits == 1
        assert (templates.evictions, templates.builds) == (2, 3)
        assert session.stats.evictions == 2

    def test_threads_churning_small_tables_lose_no_count(self, small_bounds, fresh_answers):
        # More threads than cores and a tiny switch interval, over more cells
        # than the tables hold: entries are dropped and built again while
        # other threads read them.
        cells = BOUNDED_CELLS[:24]
        session = Session()
        mismatches, errors = [], []

        def worker(offset: int) -> None:
            try:
                for config in cells[offset:] + cells[:offset]:
                    if answer(session.run(config)) != fresh_answers[config]:
                        mismatches.append(config)
            except BaseException as error:  # reported by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(index * 4,)) for index in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not mismatches
        assert_within_bounds(session)
        runs = len(threads) * len(cells)
        assert session.stats.runs == runs
        assert session.stats.plan_builds + session.stats.plan_hits == runs
        memos = [*session._memos.values(), session._templates]
        assert session.stats.evictions == sum(memo.evictions for memo in memos) > 0
