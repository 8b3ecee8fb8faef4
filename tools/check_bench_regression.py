#!/usr/bin/env python
"""Gate CI on benchmark metrics: fresh artifacts vs committed baselines.

The benchmark harness dumps one JSON artifact per figure/table when
``REPRO_BENCH_JSON_DIR`` is set; the blessed copies live in
``benchmarks/baselines/``.  This tool walks both trees, extracts every
numeric *key metric* (epoch/step times, peak memory, fleet makespan and
waits, throughput, simulations-performed counts, tune convergence budget
and gap) by its JSON path, and fails when any metric drifts more than the
tolerance (default ±20%) — or disappears outright.  The simulator is
deterministic, so the expected drift is zero; the tolerance is headroom
for intentional model refinements, not noise.  No wall-clock number is a
key metric: the telemetry ``overhead_ratio`` of ``obs_overhead.json``
varies from run to run, and ``bench_obs_overhead.py`` asserts its own
maximum for it.

Usage::

    PYTHONPATH=src REPRO_BENCH_JSON_DIR=bench-artifacts \
        python -m pytest benchmarks/bench_*.py -q
    python tools/check_bench_regression.py --current bench-artifacts

Refreshing baselines after an *intentional* performance change::

    PYTHONPATH=src REPRO_BENCH_JSON_DIR=benchmarks/baselines \
        python -m pytest benchmarks/bench_*.py -q

Exit status: 0 when every shared metric is within tolerance, 1 on any
regression / missing artifact, 2 on usage errors.  A delta table of the
worst movers is always printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: JSON keys whose numeric values are performance-gating metrics.
METRIC_KEYS = frozenset(
    {
        # single-cell execution results
        "epoch_time_s",
        "step_time_s",
        "max_memory_gb",
        # fleet reports
        "makespan_s",
        "mean_wait_s",
        "p95_wait_s",
        "jobs_per_hour",
        "gpu_utilization",
        # work accounting (catches cache/bookkeeping regressions)
        "simulations",
        "distinct_cells",
        "grid_size",
        # serve hot path (zero-simulation guarantee; latencies stay ungated)
        "cold_hit_rate",
        "warm_hit_rate",
        "store_lookups",
        # tune convergence
        "budget",
        "best_epoch_time_s",
        "optimum_epoch_time_s",
        "optimality_gap",
        "best_score",
        # pregen artifact (deterministic counts; rows/sec stays ungated)
        "rows",
        "indexed_rows",
        "samples",
        # engine primitives (deterministic counts; wall-clock stays ungated)
        "num_tasks",
        "memo_fill_spans",
        "memo_fill_cells",
        "warm_memo_fill_spans",
        "search_space_size",
        "template_builds",
        "run_rows",
    }
)

#: Below this magnitude, comparison falls back to an absolute tolerance —
#: relative deltas on near-zero baselines (e.g. a 0.0 optimality gap) explode.
ABS_FLOOR = 1e-6


def extract_metrics(payload, path: str = "") -> Iterator[Tuple[str, float]]:
    """Yield (json-path, value) for every key metric in a JSON document."""
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            child = f"{path}.{key}" if path else key
            if key in METRIC_KEYS and isinstance(value, (int, float)):
                yield child, float(value)
            else:
                yield from extract_metrics(value, child)
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            yield from extract_metrics(value, f"{path}[{index}]")


def load_metrics(directory: Path) -> Dict[str, Dict[str, float]]:
    """Per-file metric maps: ``{file name: {json path: value}}``."""
    metrics: Dict[str, Dict[str, float]] = {}
    for path in sorted(directory.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise SystemExit(f"error: {path} is not valid JSON: {error}")
        metrics[path.name] = dict(extract_metrics(payload))
    return metrics


def relative_delta(baseline: float, current: float) -> float:
    """Signed drift of ``current`` from ``baseline`` (0.0 when both tiny)."""
    if abs(baseline) < ABS_FLOOR:
        return 0.0 if abs(current - baseline) < ABS_FLOOR else float("inf")
    return (current - baseline) / abs(baseline)


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render(cells: List[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    rule = "  ".join("-" * width for width in widths)
    return "\n".join([render(headers), rule] + [render(row) for row in rows])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current",
        type=Path,
        required=True,
        help="directory of freshly produced benchmark JSON artifacts",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "baselines",
        help="directory of committed baseline artifacts",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="maximum tolerated |relative delta| per metric (default 0.20)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=15,
        help="how many of the largest in-tolerance movers to print",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="GLOB",
        help=(
            "restrict the comparison to baseline artifacts matching this "
            "fnmatch pattern (repeatable); lets a partial benchmark run "
            "(e.g. the perf-smoke CI job) gate its own artifacts without "
            "failing on every baseline it did not regenerate"
        ),
    )
    args = parser.parse_args(argv)
    if not args.baseline.is_dir():
        print(f"error: baseline directory {args.baseline} does not exist", file=sys.stderr)
        return 2
    if not args.current.is_dir():
        print(f"error: current directory {args.current} does not exist", file=sys.stderr)
        return 2

    baseline = load_metrics(args.baseline)
    current = load_metrics(args.current)
    if args.only:
        baseline = {
            name: metrics
            for name, metrics in baseline.items()
            if any(fnmatch(name, pattern) for pattern in args.only)
        }
        if not baseline:
            print(
                f"error: no baseline artifacts match --only {args.only}",
                file=sys.stderr,
            )
            return 2

    failures: List[str] = []
    compared: List[Tuple[float, str, float, float]] = []  # (|delta|, path, base, cur)

    for file_name in sorted(baseline):
        if file_name not in current:
            failures.append(f"{file_name}: artifact missing from current run")
            continue
        base_metrics, cur_metrics = baseline[file_name], current[file_name]
        for path, base_value in base_metrics.items():
            if path not in cur_metrics:
                failures.append(f"{file_name}:{path}: metric missing from current run")
                continue
            delta = relative_delta(base_value, cur_metrics[path])
            compared.append(
                (abs(delta), f"{file_name}:{path}", base_value, cur_metrics[path])
            )
            if abs(delta) > args.tolerance:
                failures.append(
                    f"{file_name}:{path}: {base_value:.6g} -> "
                    f"{cur_metrics[path]:.6g} ({delta:+.1%}, tolerance "
                    f"±{args.tolerance:.0%})"
                )
    for file_name in sorted(set(current) - set(baseline)):
        print(f"note: {file_name} has no committed baseline (new benchmark?)")

    total = len(compared)
    movers = sorted(compared, reverse=True)[: args.top]
    rows = [
        [
            name,
            f"{base:.6g}",
            f"{cur:.6g}",
            f"{relative_delta(base, cur):+.2%}",
            "FAIL" if abs_delta > args.tolerance else "ok",
        ]
        for abs_delta, name, base, cur in movers
    ]
    if rows:
        print(f"\nLargest deltas (of {total} compared metrics):")
        print(format_table(["metric", "baseline", "current", "delta", "status"], rows))

    if failures:
        print(f"\n{len(failures)} benchmark regression problem(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall {total} metrics within ±{args.tolerance:.0%} of baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
