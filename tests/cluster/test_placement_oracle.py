"""The ranked-placement fast paths against the per-call-sort originals.

The built-in policies place through :func:`place_in_order`, the simulator
memoises service estimates, and ``_try_preempt`` scans the running gangs
once.  The oracles below are the straightforward versions those replaced:
each policy sorts the whole queue and scans every node per candidate, the
estimate is recomputed on every call, and the preemption pass re-scans
every running attempt for each starved job and node.  Swapping them in must
not change a single field of any :class:`ClusterReport`.
"""

import math
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultModel
from repro.cluster.scheduler import POLICIES, Placement, best_fit_node, first_fit_node
from repro.cluster.simulator import ClusterSimulator, _Attempt, _FleetRun, run_policy_comparison
from repro.cluster.spec import cluster_from_shorthand
from repro.cluster.workload import TenantSpec, poisson_workload, tenant_workload
from repro.core.session import Session
from repro.errors import ClusterError


# ---------------------------------------------------------------------- #
# Oracles
# ---------------------------------------------------------------------- #
def best_fit_place(self, pending, free_gpus, estimate):
    for job in pending:
        node = best_fit_node(job, free_gpus)
        if node is not None:
            return Placement(job_id=job.job_id, node=node)
    return None


def sjf_place(self, pending, free_gpus, estimate):
    ranked = sorted(pending, key=lambda job: (estimate(job), job.arrival_time, job.job_id))
    for job in ranked:
        node = first_fit_node(job, free_gpus)
        if node is not None:
            return Placement(job_id=job.job_id, node=node)
    return None


def priority_place(self, pending, free_gpus, estimate, context=None):
    ranked = sorted(
        pending,
        key=lambda job: (-self.urgency(job, context), job.arrival_time, job.job_id),
    )
    for job in ranked:
        node = first_fit_node(job, free_gpus)
        if node is not None:
            return Placement(job_id=job.job_id, node=node)
    return None


def fair_share_place(self, pending, free_gpus, estimate, context=None):
    if not pending:
        return None
    deficit = context.deficit if context is not None else (lambda tenant: 0.0)
    tenants = sorted(
        {job.tenant for job in pending},
        key=lambda tenant: (-deficit(tenant), tenant),
    )
    for tenant in tenants:
        for job in pending:
            if job.tenant != tenant:
                continue
            node = first_fit_node(job, free_gpus)
            if node is not None:
                return Placement(job_id=job.job_id, node=node)
    return None


def deadline_place(self, pending, free_gpus, estimate, context=None):
    ranked = sorted(
        pending,
        key=lambda job: (
            job.deadline if job.deadline is not None else math.inf,
            job.arrival_time,
            job.job_id,
        ),
    )
    for job in ranked:
        node = first_fit_node(job, free_gpus)
        if node is not None:
            return Placement(job_id=job.job_id, node=node)
    return None


ORACLE_PLACE = {
    "best-fit": best_fit_place,
    "sjf": sjf_place,
    "priority": priority_place,
    "fair-share": fair_share_place,
    "deadline-aware": deadline_place,
}


def oracle_estimate(self, job):
    for node in self.cluster.nodes:
        if node.num_gpus >= job.gpus:
            return self.service_time(job, node)
    raise ClusterError(
        f"job {job.job_id!r} needs {job.gpus} GPUs but the largest node has "
        f"{self.cluster.max_gpus_per_node}"
    )


def oracle_try_preempt(self, t):
    if not self.queue:
        return False
    context = self._context(t) if self.contextual else None
    urgency = self.sim.policy.urgency
    ranked = sorted(
        self._eligible({}),
        key=lambda job: (-urgency(job, context), job.arrival_time, job.job_id),
    )
    for job in ranked:
        target = urgency(job, context)
        for node in self.sim.cluster.nodes:
            if self.available(node.name) < job.gpus:
                continue
            current_free = self.free[node.name]
            victims = sorted(
                (
                    attempt
                    for attempt in self.entries.values()
                    if attempt.node.name == node.name
                    and urgency(attempt.job, context) < target
                ),
                key=lambda attempt: (attempt.start, attempt.seq),
                reverse=True,
            )
            evict: List[_Attempt] = []
            gain = 0
            for attempt in victims:
                if current_free + gain >= job.gpus:
                    break
                evict.append(attempt)
                gain += attempt.gpus
            if evict and current_free + gain >= job.gpus:
                for attempt in evict:
                    self._interrupt(attempt, t)
                    self.queue.append(attempt.job)
                self.rebuild_heap()
                return True
    return False


def swap_in_oracles(monkeypatch):
    for name, place in ORACLE_PLACE.items():
        policy = POLICIES.get(name)
        monkeypatch.setattr(policy, "place", place.__get__(policy))
    monkeypatch.setattr(ClusterSimulator, "estimate_service_time", oracle_estimate)
    monkeypatch.setattr(_FleetRun, "_try_preempt", oracle_try_preempt)


# ---------------------------------------------------------------------- #
# Random fleets
# ---------------------------------------------------------------------- #
POLICY_NAMES = ("fifo", "best-fit", "sjf", "priority", "fair-share", "deadline-aware")
CLUSTERS = ("a6000:4,2080ti:4", "a6000:4,a6000:2,2080ti:4", "a6000:4,2080ti:4,2080ti:4")

tenant_specs = st.builds(
    TenantSpec,
    name=st.sampled_from(("prod", "batch", "dev")),
    priority=st.integers(0, 3),
    quota_gpus=st.one_of(st.none(), st.integers(2, 8)),
    deadline_policy=st.sampled_from(("none", "soft", "strict")),
    rate=st.sampled_from((0.05, 0.1, 0.3)),
)
rosters = st.lists(tenant_specs, min_size=1, max_size=3, unique_by=lambda spec: spec.name)
fault_models = st.one_of(
    st.none(),
    st.builds(
        FaultModel,
        preempt_rate=st.sampled_from((0.0, 0.002, 0.01)),
        straggler_rate=st.sampled_from((0.0, 0.002, 0.01)),
        crash_rate=st.sampled_from((0.0, 0.0005)),
    ),
)

fleets = st.fixed_dictionaries(
    {
        "tenants": st.one_of(st.none(), rosters),
        "num_jobs": st.integers(4, 28),
        "seed": st.integers(0, 2**16),
        "rate": st.sampled_from((0.05, 0.2, 1.0)),
        "slack": st.sampled_from((30.0, 120.0, 900.0)),
        "cluster": st.sampled_from(CLUSTERS),
        "faults": fault_models,
        "elastic": st.sampled_from(("restart", "shrink", "migrate")),
        "fault_seed": st.integers(0, 2**16),
    }
)


@pytest.fixture(scope="module")
def session():
    """One session for every example: its caches never change a report."""
    return Session()


def replay(fleet, session):
    if fleet["tenants"] is None:
        workload = poisson_workload(fleet["num_jobs"], fleet["rate"], fleet["seed"])
    else:
        workload = tenant_workload(
            fleet["tenants"],
            fleet["num_jobs"],
            rate=fleet["rate"],
            seed=fleet["seed"],
            deadline_slack=fleet["slack"],
        )
    reports = run_policy_comparison(
        cluster_from_shorthand(fleet["cluster"]),
        workload,
        policies=POLICY_NAMES,
        session=session,
        faults=fleet["faults"],
        elastic=fleet["elastic"],
        fault_seed=fleet["fault_seed"],
    )
    return {name: report.to_dict() for name, report in reports.items()}


class TestOracleEquivalence:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(fleet=fleets)
    def test_reports_match_the_per_call_sort_oracles(self, session, fleet):
        fast = replay(fleet, session)
        with pytest.MonkeyPatch.context() as monkeypatch:
            swap_in_oracles(monkeypatch)
            slow = replay(fleet, session)
        assert fast == slow

    def test_oracles_are_swapped_in(self, monkeypatch):
        swap_in_oracles(monkeypatch)
        for name, place in ORACLE_PLACE.items():
            assert POLICIES.get(name).place.__func__ is place
        assert _FleetRun._try_preempt is oracle_try_preempt
