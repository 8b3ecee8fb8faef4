"""Golden cluster-report regression: committed traces and plain fleets, pinned.

``tests/cluster/test_fault_traces.py`` proves the replays are byte-stable
*within* one code version; these goldens pin them *across* versions.  Both
committed fault traces are replayed on the golden duo cluster, and one
seeded Poisson workload runs there *plain* (no faults, tenants, deadlines
or prices) under every built-in policy.  Each resulting
:class:`~repro.analysis.cluster_report.ClusterReport` JSON must match the
committed document byte-for-byte — the lock that refactors of the event
loop change no observable behaviour, record order included.

Refreshing after an *intentional* simulator change::

    PYTHONPATH=src REPRO_UPDATE_GOLDEN=1 python -m pytest \
        tests/cluster/test_golden_reports.py -q
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster.faults import FaultTrace
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.workload import poisson_workload
from repro.core.session import Session
from tests.cluster.test_fault_traces import MIX, TRACES, golden_cluster, replay

GOLDEN_DIR = Path(__file__).parent / "golden"

TRACE_CASES = ["preempt_burst", "crash_straggler"]
PLAIN_POLICIES = ["fifo", "best-fit", "sjf", "priority", "fair-share", "deadline-aware"]


def plain_workload():
    """30 mixed 1/2/4-GPU gangs, contended enough that every policy queues."""
    mix = replace(MIX, gpu_demands=(1, 2, 4))
    return poisson_workload(30, rate=0.15, seed=7, mix=mix)


def golden_report(case: str):
    if case in TRACE_CASES:
        trace = FaultTrace.load(TRACES / f"{case}.json")
        return replay(trace, elastic="shrink", session=Session(), policy="fifo")
    policy = case.removeprefix("plain_")
    simulator = ClusterSimulator(golden_cluster(), policy=policy, session=Session())
    return simulator.run(plain_workload())


@pytest.mark.parametrize(
    "case", TRACE_CASES + [f"plain_{policy}" for policy in PLAIN_POLICIES]
)
def test_trace_report_matches_golden(case):
    payload = golden_report(case).to_json() + "\n"
    path = GOLDEN_DIR / f"{case}_report.json"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(payload)
        pytest.skip(f"golden refreshed: {path.name}")
    assert path.is_file(), (
        f"missing golden {path}; regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    assert payload == path.read_text(), (
        f"{case} report drifted from {path.name}; if the change is "
        "intentional, refresh with REPRO_UPDATE_GOLDEN=1"
    )
