"""Tests of breakdowns, speedups, memory reports and schedule rendering."""

import pytest

from repro.analysis.breakdown import (
    breakdown_fractions,
    breakdown_total,
    epoch_breakdown,
    ideal_breakdown,
)
from repro.analysis.memory_report import (
    average_memory_overhead,
    per_rank_memory_gb,
)
from repro.analysis.schedule_viz import render_gantt, schedule_summary
from repro.analysis.speedup import (
    crossover_batch,
    geometric_mean_speedup,
    speedup_over,
)
from repro.core.session import Session
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def suite(default_config):
    return Session().ablation(default_config, ("DP", "TR", "TR+DPU+AHD"))


class TestBreakdown:
    def test_epoch_breakdown_categories(self, suite):
        breakdown = epoch_breakdown(suite.results["DP"])
        assert set(breakdown) == {"data_load", "teacher_exec", "student_exec", "idle"}
        assert breakdown_total(breakdown) > 0

    def test_fractions_sum_to_one(self, suite):
        fractions = breakdown_fractions(epoch_breakdown(suite.results["DP"]))
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_fractions_of_zero_breakdown(self):
        assert breakdown_fractions({"a": 0.0, "b": 0.0}) == {"a": 0.0, "b": 0.0}

    def test_ideal_has_no_idle_and_beats_baseline(self, default_config, suite):
        ideal = ideal_breakdown(
            default_config.build_pair(),
            default_config.build_server(),
            default_config.build_dataset(),
            default_config.batch_size,
        )
        assert ideal["idle"] == 0.0
        # Fig. 2: the ideal bar is far below the DP baseline bar.
        assert breakdown_total(ideal) < breakdown_total(epoch_breakdown(suite.results["DP"]))

    def test_pipe_bd_teacher_time_less_than_dp(self, suite):
        # Teacher relaying removes the redundant prefix executions.
        dp = epoch_breakdown(suite.results["DP"])
        pipe_bd = epoch_breakdown(suite.results["TR+DPU+AHD"])
        assert pipe_bd["teacher_exec"] < dp["teacher_exec"]


class TestSpeedup:
    def test_speedup_over_and_series(self, suite):
        base = suite.results["DP"]
        assert speedup_over(base, base) == pytest.approx(1.0)
        series = suite.speedups("DP")
        assert series["TR+DPU+AHD"] > series["DP"]

    def test_missing_baseline_rejected(self, suite):
        with pytest.raises(ConfigurationError):
            suite.speedups("LS")

    def test_geometric_mean(self):
        assert geometric_mean_speedup([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ConfigurationError):
            geometric_mean_speedup([])
        with pytest.raises(ConfigurationError):
            geometric_mean_speedup([1.0, 0.0])

    def test_crossover_batch(self):
        series_a = {128: 2.0, 256: 2.0, 512: 2.0}
        series_b = {128: 1.0, 256: 2.5, 512: 3.0}
        assert crossover_batch(series_a, series_b) == 256
        assert crossover_batch(series_b, {128: 0.5, 256: 0.5, 512: 0.5}) is None


class TestMemoryReport:
    def test_per_rank_and_max(self, suite):
        per_rank = per_rank_memory_gb(suite.results["TR"])
        assert set(per_rank) == {0, 1, 2, 3}
        assert suite.results["TR"].max_memory_gb() == pytest.approx(max(per_rank.values()))

    def test_average_overhead_tr_over_dp_positive(self, suite):
        overhead = average_memory_overhead(suite.results["TR"], suite.results["DP"])
        assert overhead > 0

    def test_mismatched_devices_rejected(self, suite):
        from dataclasses import replace

        broken = replace(suite.results["TR"], peak_memory_bytes={0: 1.0})
        with pytest.raises(ConfigurationError):
            average_memory_overhead(broken, suite.results["DP"])


class TestScheduleViz:
    def test_schedule_summary_mentions_every_device(self, suite):
        summary = schedule_summary(suite.results["TR+DPU+AHD"].plan)
        for device in range(4):
            assert f"device {device}" in summary
        assert "DP" in schedule_summary(suite.results["DP"].plan) or "all devices" in schedule_summary(
            suite.results["DP"].plan
        )

    def test_render_gantt_has_one_row_per_device(self, suite):
        trace = suite.results["TR+DPU+AHD"].trace
        chart = render_gantt(trace, num_devices=4, width=60)
        assert chart.count("gpu") == 4
        assert "legend" in chart

    def test_render_gantt_validates_width(self, suite):
        with pytest.raises(ValueError):
            render_gantt(suite.results["TR"].trace, num_devices=4, width=5)

    def test_render_gantt_empty_window(self, suite):
        chart = render_gantt(suite.results["TR"].trace, num_devices=4, start=5.0, end=5.0)
        assert chart == "(empty trace)"
