"""The profiling harness: coverage accounting, breakdown table, trace file."""

import time

import pytest

from repro.obs.profiler import format_breakdown, profile_workload
from repro.obs.tracing import get_recorder, span


def busy_workload():
    with span("step.one"):
        time.sleep(0.002)
    with span("step.two"):
        time.sleep(0.001)
    return "done"


class TestProfileWorkload:
    def test_report_fields_and_coverage(self):
        report = profile_workload("run", busy_workload)
        assert report.kind == "run"
        assert report.result == "done"
        assert report.wall_s > 0
        # The root profile span wraps the whole workload, so coverage is
        # essentially total for any non-trivial run.
        assert 0.95 <= report.coverage <= 1.0
        assert report.span_count == 3  # profile.run + two steps
        assert report.dropped_spans == 0
        names = [row["name"] for row in report.breakdown]
        assert "profile.run" in names
        assert "step.one" in names

    def test_recorder_is_uninstalled_afterwards(self):
        assert get_recorder() is None
        profile_workload("run", busy_workload)
        assert get_recorder() is None

    def test_recorder_is_uninstalled_when_the_workload_raises(self):
        with pytest.raises(RuntimeError):
            profile_workload("run", lambda: (_ for _ in ()).throw(RuntimeError()))
        assert get_recorder() is None

    def test_to_dict_is_json_shaped(self):
        report = profile_workload("sweep", busy_workload)
        payload = report.to_dict()
        assert payload["kind"] == "sweep"
        assert "result" not in payload
        assert "chrome_trace" not in payload
        assert all(
            set(row) == {"name", "count", "total_ms", "self_ms"}
            for row in payload["breakdown"]
        )

    def test_chrome_trace_covers_every_span(self):
        report = profile_workload("run", busy_workload)
        events = report.chrome_trace["traceEvents"]
        assert len(events) == report.span_count
        assert {event["name"] for event in events} == {
            "profile.run",
            "step.one",
            "step.two",
        }


class TestFormatBreakdown:
    def test_table_and_footer(self):
        report = profile_workload("run", busy_workload)
        text = format_breakdown(report)
        lines = text.splitlines()
        assert lines[0].split() == ["span", "count", "total", "ms", "self", "ms", "%", "wall"]
        assert any("step.one" in line for line in lines)
        assert "coverage" in lines[-1]
        assert "0 dropped" in lines[-1]
