"""The profiling harness behind every CLI command's ``--profile PATH``.

:func:`profile_workload` installs a fresh :class:`SpanRecorder`, runs a
workload callable under one root span (``profile.<kind>``; the CLI
passes the command's name, so ``repro sweep --profile`` records
``profile.sweep``), and returns a :class:`ProfileReport`: wall time,
span-tree coverage of that wall time, per-span-name breakdown rows
(count / total / self time), and the chrome-trace document the CLI
writes to PATH.

Coverage is the fraction of measured wall time accounted for by the
recorded root spans — the acceptance bar is ≥95%, i.e. the tracer must
not lose meaningful time to its own bookkeeping.  The breakdown's
``self_s`` column is what says where a slow run spends its time: whether
a slow sweep is estimator math, store I/O, or neither.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List

from repro.fold import left_sum
from repro.obs.tracing import SpanRecorder, span

__all__ = ["ProfileReport", "profile_workload", "format_breakdown"]


@dataclass
class ProfileReport:
    """Everything one profiling run produced."""

    kind: str
    wall_s: float
    coverage: float
    span_count: int
    dropped_spans: int
    breakdown: List[dict] = field(default_factory=list)
    chrome_trace: dict = field(default_factory=dict)
    result: object = None

    def to_dict(self) -> dict:
        """The payload's ``profile`` section (trace + result excluded)."""
        return {
            "kind": self.kind,
            "wall_s": round(self.wall_s, 6),
            "coverage": round(self.coverage, 4),
            "span_count": self.span_count,
            "dropped_spans": self.dropped_spans,
            "breakdown": [
                {
                    "name": row["name"],
                    "count": row["count"],
                    "total_ms": round(row["total_s"] * 1e3, 3),
                    "self_ms": round(row["self_s"] * 1e3, 3),
                }
                for row in self.breakdown
            ],
        }


def profile_workload(
    kind: str,
    workload: Callable[[], object],
    capacity: int = 65536,
) -> ProfileReport:
    """Run ``workload`` under a fresh recorder and measure where time went.

    Example:
        >>> import time
        >>> from repro.obs.profiler import profile_workload
        >>> from repro.obs.tracing import span
        >>> def workload():
        ...     with span("work.step"):
        ...         time.sleep(0.01)
        ...         return 42
        >>> report = profile_workload("run", workload)
        >>> (report.result, report.coverage > 0.95, report.span_count)
        (42, True, 2)
    """
    recorder = SpanRecorder(capacity=capacity)
    with recorder:
        t0 = time.perf_counter()
        with span(f"profile.{kind}"):
            result = workload()
        wall_s = time.perf_counter() - t0
    covered_s = left_sum(root.duration_s for root in recorder.roots())
    coverage = min(1.0, covered_s / wall_s) if wall_s > 0 else 1.0
    return ProfileReport(
        kind=kind,
        wall_s=wall_s,
        coverage=coverage,
        span_count=len(recorder.spans()),
        dropped_spans=recorder.dropped,
        breakdown=recorder.breakdown(),
        chrome_trace=recorder.chrome_trace(),
        result=result,
    )


def format_breakdown(report: ProfileReport) -> str:
    """The human table ``--profile`` prints to stderr."""
    headers = ["span", "count", "total ms", "self ms", "% wall"]
    rows = []
    for row in report.breakdown:
        share = row["total_s"] / report.wall_s if report.wall_s > 0 else 0.0
        rows.append(
            [
                row["name"],
                str(row["count"]),
                f"{row['total_s'] * 1e3:.3f}",
                f"{row['self_s'] * 1e3:.3f}",
                f"{share:6.1%}",
            ]
        )
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = [render(headers), "  ".join("-" * w for w in widths)]
    lines.extend(render(row) for row in rows)
    lines.append(
        f"wall {report.wall_s * 1e3:.3f} ms · coverage {report.coverage:.1%} · "
        f"{report.span_count} spans ({report.dropped_spans} dropped)"
    )
    return "\n".join(lines)
