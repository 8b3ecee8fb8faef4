"""Golden cluster-report regression: committed traces and plain fleets, pinned.

``tests/cluster/test_fault_traces.py`` proves the replays are byte-stable
*within* one code version; these goldens pin them *across* versions.  Both
committed fault traces are replayed on the golden duo cluster, and one
seeded Poisson workload runs there *plain* (no faults, tenants, deadlines
or prices) under every built-in policy.  Each resulting
:class:`~repro.analysis.cluster_report.ClusterReport` JSON must match the
committed document byte-for-byte — the lock that refactors of the event
loop change no observable behaviour, record order included.

The tenant cases pin what the plain ones cannot reach: the preemption
scan, the scheduling context and fair-share deficits.  A contended
two-tenant fleet (a GPU quota on the heavy tenant, strict deadlines on the
light one, spot prices, preempt and straggler faults, ``shrink``) runs under
priority, fair-share and deadline-aware, and each run must evict at least
one gang voluntarily.

Every golden here, the tenant cases included, fails on Python 3.12 and
later until the float sums stop going through the builtin ``sum`` (its
result is compensated from 3.12 on; ROADMAP item 1).

Refreshing after an *intentional* simulator change::

    PYTHONPATH=src REPRO_UPDATE_GOLDEN=1 python -m pytest \
        tests/cluster/test_golden_reports.py -q
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster.faults import FaultModel, FaultTrace
from repro.cluster.market import parse_price_curve
from repro.cluster.simulator import ClusterSimulator, _FleetRun
from repro.cluster.spec import cluster_from_shorthand
from repro.cluster.workload import parse_tenant_shorthand, poisson_workload, tenant_workload
from repro.core.session import Session
from tests.cluster.test_fault_traces import MIX, TRACES, golden_cluster, replay

GOLDEN_DIR = Path(__file__).parent / "golden"

TRACE_CASES = ["preempt_burst", "crash_straggler"]
PLAIN_POLICIES = ["fifo", "best-fit", "sjf", "priority", "fair-share", "deadline-aware"]
TENANT_POLICIES = ["priority", "fair-share", "deadline-aware"]
TENANT_ROSTER = "heavy:quota=6,rate=0.04;light:priority=2,deadline=strict,rate=0.25,slack=60"


def plain_workload():
    """30 mixed 1/2/4-GPU gangs, contended enough that every policy queues."""
    mix = replace(MIX, gpu_demands=(1, 2, 4))
    return poisson_workload(30, rate=0.15, seed=7, mix=mix)


def tenant_simulator(policy: str) -> ClusterSimulator:
    """The contended two-tenant fleet with faults, shrink and spot prices."""
    return ClusterSimulator(
        cluster_from_shorthand("a6000:4,2080ti:4", name="golden-tenants"),
        policy=policy,
        session=Session(),
        faults=FaultModel(preempt_rate=0.002, straggler_rate=0.002),
        elastic="shrink",
        price_curve=parse_price_curve("spot"),
    )


def tenant_workload_golden():
    """40 jobs: heavy gangs under a 6-GPU quota, light strict-deadline jobs."""
    return tenant_workload(parse_tenant_shorthand(TENANT_ROSTER), 40, seed=0)


def golden_report(case: str):
    if case in TRACE_CASES:
        trace = FaultTrace.load(TRACES / f"{case}.json")
        return replay(trace, elastic="shrink", session=Session(), policy="fifo")
    if case.startswith("tenants_"):
        return tenant_simulator(case.removeprefix("tenants_")).run(tenant_workload_golden())
    policy = case.removeprefix("plain_")
    simulator = ClusterSimulator(golden_cluster(), policy=policy, session=Session())
    return simulator.run(plain_workload())


@pytest.mark.parametrize(
    "case",
    TRACE_CASES
    + [f"plain_{policy}" for policy in PLAIN_POLICIES]
    + [f"tenants_{policy}" for policy in TENANT_POLICIES],
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


@pytest.mark.parametrize("policy", TENANT_POLICIES)
def test_tenant_golden_fleet_preempts_voluntarily(policy, monkeypatch):
    try_preempt = _FleetRun._try_preempt
    evictions = []

    def counting_try_preempt(run, t):
        evicted = try_preempt(run, t)
        evictions.append(evicted)
        return evicted

    monkeypatch.setattr(_FleetRun, "_try_preempt", counting_try_preempt)
    report = tenant_simulator(policy).run(tenant_workload_golden())
    assert sum(evictions) > 0
    assert report.interruptions > 0  # voluntary and fault evictions alike
    assert report.faults_injected > 0
    assert {record.tenant for record in report.records} == {"heavy", "light"}
