"""The fleet loop's running ledgers against the per-call rebuilds they replaced.

``_FleetRun`` keeps three things up to date instead of rebuilding them:

* each tenant's held GPUs, updated by ``_start`` and ``_release``;
* each tenant's fair-share entitlement, the live capacity integrated from
  t=0 and advanced whenever a fault resizes the fleet;
* the ``SchedulingContext`` of the latest placement pass, which the
  preemption scan right after a stalled pass reuses.

The oracles rebuild each from scratch: usage from every running attempt, a
fresh context per call, and the capacity integral from a recorded history
of every resize.  Random fleets (the placement-oracle strategy) check them
before every placement pass and every preemption scan.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.cluster.faults import FaultEvent, FaultTrace
from repro.cluster.simulator import _FleetRun, run_policy_comparison
from repro.cluster.spec import cluster_from_shorthand
from repro.cluster.workload import TenantSpec, tenant_workload
from repro.core.session import Session
from tests.cluster.test_placement_oracle import POLICY_NAMES, fleets, replay


# ---------------------------------------------------------------------- #
# Oracles
# ---------------------------------------------------------------------- #
def oracle_usage(run):
    usage = {}
    for attempt in run.entries.values():
        usage[attempt.job.tenant] = usage.get(attempt.job.tenant, 0) + attempt.gpus
    return usage


def oracle_fleet(run):
    return sum(run.available(name) for name in run.capacity)


def oracle_deficits(run, t):
    """Entitled minus consumed GPU-seconds, integrating a resize history."""
    history = run.__dict__.setdefault("resizes", [(0.0, oracle_fleet(run))])
    integral = 0.0
    for (since, fleet), (until, _) in zip(history, history[1:] + [(t, None)]):
        integral += fleet * (until - since)
    live = dict(run.consumed)
    for attempt in run.entries.values():
        tenant = attempt.job.tenant
        live[tenant] = live.get(tenant, 0.0) + attempt.gpus * (t - attempt.start)
    total = sum(run.share_weight.values()) or 1.0
    return {
        name: integral * run.share_weight[name] / total - live.get(name, 0.0)
        for name in run.tenants
    }


def check_ledgers(monkeypatch):
    """Wrap the loop so every pass and scan checks the ledgers; returns counts."""
    counts = {"passes": 0, "scans": 0, "resizes": 0, "shrinks": 0}
    place_pass = _FleetRun._place_pass
    try_preempt = _FleetRun._try_preempt
    fault = _FleetRun.fault
    start = _FleetRun._start

    def counted_start(self, job, node, gpus, t, action):
        counts["shrinks"] += gpus < job.gpus
        return start(self, job, node, gpus, t, action)

    def checked_fault(self, t, action, event, token):
        history = self.__dict__.setdefault("resizes", [(0.0, oracle_fleet(self))])
        moved = fault(self, t, action, event, token)
        if oracle_fleet(self) != history[-1][1]:
            history.append((t, oracle_fleet(self)))
            counts["resizes"] += bool(self.tenants)
        return moved

    def checked_place_pass(self, t):
        assert self.usage == (oracle_usage(self) if not self.plain else {})
        if self.tenants:
            expected = oracle_deficits(self, t)
            assert self._context(t).deficits == pytest.approx(expected, rel=1e-9, abs=1e-6)
        counts["passes"] += 1
        return place_pass(self, t)

    def checked_try_preempt(self, t):
        if self.contextual and self.queue and self.entries:
            assert self.pass_context == self._context(t)
            counts["scans"] += 1
        return try_preempt(self, t)

    monkeypatch.setattr(_FleetRun, "_start", counted_start)
    monkeypatch.setattr(_FleetRun, "fault", checked_fault)
    monkeypatch.setattr(_FleetRun, "_place_pass", checked_place_pass)
    monkeypatch.setattr(_FleetRun, "_try_preempt", checked_try_preempt)
    return counts


@pytest.fixture(scope="module")
def session():
    return Session()


class TestLedgerOracles:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(fleet=fleets)
    def test_ledgers_match_the_rebuilds(self, session, fleet):
        plain = replay(fleet, session)
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_ledgers(monkeypatch)
            checked = replay(fleet, session)
        assert checked == plain

    def test_every_ledger_is_exercised(self, monkeypatch):
        """A quota-weighted, faulted tenant fleet hits every checked path."""
        counts = check_ledgers(monkeypatch)
        tenants = (
            TenantSpec("prod", priority=2, quota_gpus=6, deadline_policy="strict", rate=0.2),
            TenantSpec("batch", quota_gpus=3, rate=0.3),
        )
        workload = tenant_workload(tenants, 30, rate=0.3, seed=1, deadline_slack=120.0)
        trace = FaultTrace(
            name="hand-built",
            events=(
                FaultEvent(time=20.0, kind="preempt", node="a6000-0", gpus=2, duration=60.0),
                FaultEvent(time=45.0, kind="crash", node="2080ti-0", gpus=2),
            ),
        )
        reports = run_policy_comparison(
            cluster_from_shorthand("a6000:4,2080ti:4"),
            workload,
            policies=POLICY_NAMES,
            faults=trace,
            elastic="shrink",
        )
        assert set(reports) == set(POLICY_NAMES)
        assert counts["passes"] > 0
        assert counts["scans"] > 0
        assert counts["resizes"] > 0
        assert counts["shrinks"] > 0
