"""Plain-text report formatting for tables and figure data series.

The benchmarks print the same rows/series the paper reports; these helpers
keep the formatting in one place so benchmark scripts stay short.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.core.session import ExperimentSuiteResult
from repro.models.layers import human_flops, human_params
from repro.models.pairs import DistillationPair
from repro.parallel.executor import ExecutionResult
from repro.sim.metrics import BREAKDOWN_CATEGORIES


def format_seconds(seconds: float) -> str:
    """Format a duration the way the paper's Table II does (``62m 21s``)."""
    if seconds < 0:
        raise ValueError("duration must be non-negative")
    if seconds < 60:
        return f"{seconds:.2f}s"
    minutes, rem = divmod(seconds, 60.0)
    # The paper keeps minutes past 60 (e.g. "229m 23s"), so no hours field.
    return f"{int(minutes)}m {rem:04.1f}s"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render a fixed-width text table."""
    columns = len(headers)
    widths = [len(header) for header in headers]
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} does not have {columns} columns")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = [render_row(headers), render_row(["-" * width for width in widths])]
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)


def speedup_table(suite: ExperimentSuiteResult, baseline: str = "DP") -> str:
    """Speedup-over-baseline table for one experiment cell (Fig. 4 data)."""
    speedups = suite.speedups(baseline)
    rows = [
        [
            strategy,
            f"{suite.results[strategy].epoch_time:.2f}s",
            f"{speedups[strategy]:.2f}x",
        ]
        for strategy in suite.results
    ]
    title = f"Speedup over {baseline} — {suite.config.label()}"
    table = format_table(["strategy", "epoch time", "speedup"], rows)
    return f"{title}\n{table}"


def breakdown_table(result: ExecutionResult) -> str:
    """Per-device time breakdown table for one result (Fig. 2 data)."""
    headers = ["device"] + list(BREAKDOWN_CATEGORIES) + ["total"]
    rows = []
    for device in sorted(result.breakdown):
        categories = result.breakdown[device]
        total = sum(categories.values())
        rows.append(
            [f"rank {device}"]
            + [f"{categories[category]:.2f}s" for category in BREAKDOWN_CATEGORIES]
            + [f"{total:.2f}s"]
        )
    return format_table(headers, rows)


def memory_table(results: Mapping[str, ExecutionResult]) -> str:
    """Per-rank peak memory for several strategies (Fig. 7 data)."""
    strategies = list(results)
    devices = sorted(next(iter(results.values())).peak_memory_bytes)
    headers = ["rank"] + strategies
    rows = []
    for device in devices:
        rows.append(
            [f"{device}"]
            + [f"{results[strategy].peak_memory_bytes[device] / 1e9:.2f} GB" for strategy in strategies]
        )
    rows.append(
        ["Max."]
        + [f"{results[strategy].max_memory_gb():.2f} GB" for strategy in strategies]
    )
    return format_table(headers, rows)


def model_summary_row(pair: DistillationPair) -> Dict[str, str]:
    """Teacher/student parameter and FLOP columns of Table II."""
    from repro.models.proxylessnas import searched_model_macs

    teacher = pair.teacher
    student = pair.student
    if pair.task == "nas":
        student_macs = searched_model_macs(student)
        # Architecture parameters are a negligible fraction; report the
        # average single-path parameter count for the searched student.
        student_params = student.params / max(
            1,
            next(
                layer.metadata.get("num_candidates", 1)
                for block in student.blocks
                for layer in block.layers
                if layer.kind == "mixed"
            ),
        )
    else:
        student_macs = student.macs
        student_params = student.params
    return {
        "teacher_params": human_params(teacher.params),
        "teacher_flops": human_flops(teacher.flops),
        "student_params": human_params(student_params),
        "student_flops": human_flops(2.0 * student_macs),
    }


def table2_row(
    task: str,
    dataset: str,
    pair: DistillationPair,
    epoch_times: Mapping[str, float],
) -> Sequence[str]:
    """One row of Table II: models, sizes and per-epoch elapsed times."""
    summary = model_summary_row(pair)
    return [
        task,
        dataset,
        pair.teacher.name,
        summary["teacher_params"],
        summary["teacher_flops"],
        pair.student.name,
        summary["student_params"],
        summary["student_flops"],
        format_seconds(epoch_times.get("DP", float("nan"))),
        format_seconds(epoch_times.get("LS", float("nan"))),
        format_seconds(epoch_times.get("TR+DPU+AHD", float("nan"))),
    ]


TABLE2_HEADERS = (
    "task",
    "dataset",
    "teacher",
    "T params",
    "T FLOPs",
    "student",
    "S params",
    "S FLOPs",
    "DP",
    "LS",
    "Pipe-BD",
)
