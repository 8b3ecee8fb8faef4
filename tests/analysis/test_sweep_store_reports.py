"""Tests of the sweep-grid series/tables and the warm/cold store reports."""

import pytest

from repro.analysis.store_report import (
    format_session_stats,
    format_store_overview,
    request_warm_cold,
    store_overview,
    warm_cold_summary,
)
from repro.analysis.sweep import format_best_cells, format_sweep_table, sweep_crossover_batch
from repro.core.config import ExperimentConfig
from repro.core.session import Session, SessionStats, SweepResult
from repro.errors import ConfigurationError
from repro.store.store import ExperimentStore

PIPE_BD = "TR+DPU+AHD"


@pytest.fixture(scope="module")
def base():
    return ExperimentConfig(batch_size=128, simulated_steps=4)


@pytest.fixture(scope="module")
def batch_sweep(base):
    return Session().sweep(base, batch_sizes=(128, 256), strategies=("DP", "TR", PIPE_BD))


@pytest.fixture(scope="module")
def gpu_sweep(base):
    return Session().sweep(base, num_gpus=(2, 4), strategies=("DP", PIPE_BD))


class TestSweepSeries:
    def test_speedups_are_relative_to_the_baseline(self, batch_sweep):
        table = batch_sweep.speedup_table()
        assert list(table) == list(batch_sweep.labels())
        for cell, row in zip(batch_sweep.cells, table.values()):
            assert row["DP"] == pytest.approx(1.0)
            assert row[PIPE_BD] == pytest.approx(
                cell.results["DP"].epoch_time / cell.results[PIPE_BD].epoch_time
            )

    def test_batch_sensitivity_is_keyed_by_batch(self, batch_sweep):
        series = batch_sweep.series(PIPE_BD, axis="batch_size")
        assert series == {
            cell.config.batch_size: cell.speedups("DP")[PIPE_BD] for cell in batch_sweep
        }
        assert all(speedup > 1.0 for speedup in series.values())
        # Speedups over TR instead of DP: TR itself sits at exactly 1.
        tr_over_tr = batch_sweep.series("TR", axis="batch_size", baseline="TR")
        assert set(tr_over_tr.values()) == {1.0}

    def test_gpu_sensitivity_is_keyed_by_gpu_count(self, gpu_sweep):
        series = gpu_sweep.series(PIPE_BD, axis="num_gpus")
        assert sorted(series) == [2, 4]
        assert all(speedup > 1.0 for speedup in series.values())

    def test_gpu_series_on_a_batch_grid_is_ambiguous(self, batch_sweep):
        # Both cells share num_gpus, so it does not identify a cell.
        with pytest.raises(ConfigurationError, match="uniquely"):
            batch_sweep.series(PIPE_BD, axis="num_gpus")

    def test_crossover_batch(self, batch_sweep):
        # Pipe-BD beats DP from the smallest swept batch on ...
        assert sweep_crossover_batch(batch_sweep, "DP", PIPE_BD) == 128
        # ... and DP never catches up with it.
        assert sweep_crossover_batch(batch_sweep, PIPE_BD, "DP") is None


class TestSweepTables:
    def test_sweep_table_has_a_row_per_cell(self, batch_sweep):
        lines = format_sweep_table(batch_sweep).splitlines()
        assert lines[0] == "Speedup over DP across 2 cells"
        assert lines[1].split() == ["cell", "DP", "TR", PIPE_BD]
        labels = set(batch_sweep.labels())
        rows = [line for line in lines if line.split() and line.split()[0] in labels]
        assert len(rows) == 2
        assert all(row.split()[1] == "1.00x" for row in rows)

    def test_sweep_table_rejects_an_empty_grid(self, base):
        empty = SweepResult(base_config=base, strategies=("DP",), cells=())
        with pytest.raises(ConfigurationError, match="no cells"):
            format_sweep_table(empty)

    def test_best_cells_names_the_fastest_strategy(self, batch_sweep):
        lines = format_best_cells(batch_sweep).splitlines()
        assert lines[0].split()[:3] == ["cell", "fastest", "strategy"]
        for cell in batch_sweep:
            row = next(line for line in lines if line.startswith(cell.config.cell_label()))
            fastest = row.split()[1]
            assert fastest == PIPE_BD
            assert row.split()[2] == f"{cell.results[PIPE_BD].epoch_time:.2f}s"


class TestWarmCold:
    def test_summary_without_a_store(self, base):
        session = Session()
        session.run(base, strategy="DP")
        session.run(base, strategy="DP")
        summary = warm_cold_summary(session)
        assert summary == {
            "simulations": 2,
            "store_hits": 0,
            "store_builds": 0,
            "warm_fraction": 0.0,
            "has_store": False,
        }

    def test_second_session_over_a_store_is_all_warm(self, base, tmp_path):
        cold = Session(store=tmp_path / "store")
        cold.run(base, strategy="DP")
        assert warm_cold_summary(cold)["store_builds"] == 1
        warm = Session(store=tmp_path / "store")
        warm.run(base, strategy="DP")
        summary = warm_cold_summary(warm)
        assert (summary["simulations"], summary["store_hits"]) == (0, 1)
        assert summary["warm_fraction"] == 1.0
        assert summary["has_store"] is True

    def test_request_accounting_of_a_cold_delta(self):
        assert request_warm_cold({"runs": 2, "store_builds": 2}) == {
            "simulations": 2,
            "store_hits": 0,
            "store_builds": 2,
            "warm": False,
        }
        assert request_warm_cold({})["warm"] is True

    def test_session_stats_table(self):
        stats = SessionStats(runs=3, profile_builds=1, profile_hits=3, pair_builds=2)
        lines = format_session_stats(stats).splitlines()
        assert lines[0] == "Session caches (3 simulation(s) performed)"
        rows = {line.split()[0]: line.split()[1:] for line in lines[2:] if line.split()}
        assert set(SessionStats.CACHES) <= set(rows)
        assert rows["profile"] == ["1", "3", "0.75"]
        assert rows["pair"] == ["2", "0", "0.00"]

    def test_store_overview_counts_records_by_kind(self, base, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        Session(store=store).ablation(base, strategies=("DP", "TR"))
        overview = store_overview(store)
        assert overview["records_by_kind"] == {"run": 2}
        assert overview["stats"]["records"] == 2
        text = format_store_overview(store)
        assert text.splitlines()[0] == f"Experiment store at {overview['root']}"
        assert any(line.split() == ["kind:run", "2"] for line in text.splitlines())
        store.close()
