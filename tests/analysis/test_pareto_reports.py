"""Tests of the Pareto post-processing helpers over tune-result documents.

The documents are built by hand, so every expected number below is
worked out from the points themselves rather than from a tuning run.
"""

import json

import pytest

from repro.analysis.pareto import (
    dominated_fraction,
    format_frontier_table,
    format_tune_summary,
    frontier_points,
    hypervolume_2d,
    load_tune_result,
)
from repro.errors import ConfigurationError


def point(label, epoch, gpus, memory=1.0, cost=0.5, jobs=None):
    return {
        "label": label,
        "epoch_time_s": epoch,
        "gpus": gpus,
        "max_memory_gb": memory,
        "cost_usd_per_epoch": cost,
        "jobs_per_hour": jobs,
    }


def document(frontier, dominated=()):
    frontier = list(frontier)
    return {
        "objective": {"name": "min-epoch-time", "sense": "min"},
        "driver": "exhaustive",
        "budget": 8,
        "space": {"size": 12},
        "best": frontier[0] if frontier else None,
        "frontier": frontier,
        "measurements": frontier + list(dominated),
        "evaluator_stats": {"simulations": 5},
    }


# A staircase: more GPUs buy a shorter epoch.
STAIRCASE = (point("a", 3.0, 8), point("b", 6.0, 4), point("c", 10.0, 2))


class TestFrontierQueries:
    def test_frontier_points_are_a_copy_in_order(self):
        payload = document(STAIRCASE)
        points = frontier_points(payload)
        assert [p["label"] for p in points] == ["a", "b", "c"]
        points.pop()
        assert len(payload["frontier"]) == 3

    def test_dominated_fraction_counts_pruned_candidates(self):
        payload = document(STAIRCASE, dominated=[point("x", 12.0, 8)])
        assert dominated_fraction(payload) == pytest.approx(1 - 3 / 4)
        assert dominated_fraction(document(STAIRCASE)) == 0.0

    def test_dominated_fraction_of_empty_document_is_zero(self):
        assert dominated_fraction(document(())) == 0.0

    def test_non_document_rejected(self):
        with pytest.raises(ConfigurationError, match="TuneResult"):
            frontier_points([1, 2, 3])


class TestHypervolume:
    def test_default_reference_is_the_frontier_maximum(self):
        # Reference (8 GPUs, 10 s): only the 4-GPU point encloses area,
        # (8 - 4) * (10 - 6) = 16.
        assert hypervolume_2d(document(STAIRCASE)) == pytest.approx(16.0)

    def test_explicit_reference(self):
        # Reference (10, 12): 2*(12-10) + 4*(12-6) + 2*(12-3) = 4 + 24 + 18.
        volume = hypervolume_2d(document(STAIRCASE), reference=(10.0, 12.0))
        assert volume == pytest.approx(46.0)

    def test_single_point_and_empty_frontiers_have_no_volume(self):
        assert hypervolume_2d(document([point("a", 3.0, 8)])) == 0.0
        assert hypervolume_2d(document(())) == 0.0

    def test_better_frontier_has_larger_volume(self):
        improved = (point("a", 2.0, 8), point("b", 4.0, 4), point("c", 10.0, 2))
        reference = (10.0, 12.0)
        assert hypervolume_2d(document(improved), reference=reference) > hypervolume_2d(
            document(STAIRCASE), reference=reference
        )


class TestFormatting:
    def test_frontier_table_title_and_rows(self):
        table = format_frontier_table(document(STAIRCASE, dominated=[point("x", 12.0, 8)]))
        lines = table.splitlines()
        assert lines[0] == "Pareto frontier (4 evaluated, 1 dominated)"
        assert any(line.startswith("a") and "3.00s" in line for line in lines)
        assert not any(line.startswith("x") for line in lines)

    def test_frontier_table_marks_missing_axes(self):
        table = format_frontier_table(
            document([point("a", 3.0, 8, memory=None, jobs=None), point("b", 6.0, 4, jobs=12.0)])
        )
        row_a = next(line for line in table.splitlines() if line.startswith("a"))
        row_b = next(line for line in table.splitlines() if line.startswith("b"))
        assert row_a.split() == ["a", "3.00s", "8", "-", "$0.5000", "-"]
        assert row_b.split() == ["b", "6.00s", "4", "1.00GB", "$0.5000", "12.0/h"]

    def test_tune_summary_names_winner_and_spend(self):
        summary = format_tune_summary(document(STAIRCASE))
        assert "winner        : a" in summary
        assert "min-epoch-time (min)" in summary
        assert "simulations   : 5 (grid size 12)" in summary
        assert summary.splitlines()[-1] == "frontier size : 3"


class TestLoading:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_text(json.dumps(document(STAIRCASE)))
        assert load_tune_result(path)["frontier"][1]["label"] == "b"

    def test_load_rejects_other_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"frontier": [], "best": None}))
        with pytest.raises(ConfigurationError, match="objective"):
            load_tune_result(path)
