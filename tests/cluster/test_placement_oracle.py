"""The ranked-placement fast paths against the per-call-sort originals.

The built-in policies place through :func:`place_in_order`, the simulator
memoises service estimates, and ``_try_preempt`` scans the running gangs
once.  The oracles below are the straightforward versions those replaced:
each policy sorts the whole queue and scans every node per candidate, the
estimate is recomputed on every call, and the preemption pass re-scans
every running attempt for each starved job and node.  Swapping them in must
not change a single field of any :class:`ClusterReport`.

A second set pins the tenant-aware decision path against its previous
form: a preemption scan that scores every running gang and every eligible
job and sorts them (no ranked-queue walk), a scheduling context whose
fair-share deficits are computed eagerly, and a fair-share ``place`` that
stable-sorts the whole queue by tenant rank.  A custom preempting policy
whose rank order is not the scan's order must keep the scored and sorted
scan.
"""

import math
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultModel
from repro.cluster.scheduler import (
    POLICIES,
    Placement,
    SchedulingContext,
    best_fit_node,
    first_fit_node,
    in_rank_order,
    place_in_order,
    register_policy,
)
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


def scoring_try_preempt(self, t):
    if not self.queue.jobs or not self.entries:
        return False
    context = self.pass_context
    urgency = self.sim.policy.urgency
    running = {}
    floor = math.inf
    for attempt in reversed(self.entries.values()):
        score = urgency(attempt.job, context)
        if score < floor:
            floor = score
        running.setdefault(attempt.node.name, []).append((score, attempt))
    scored = [(urgency(job, context), job) for job in self._within_quota(self.queue.jobs, {})]
    if not scored or max(score for score, _ in scored) <= floor:
        return False
    ranked = sorted(scored, key=lambda item: (-item[0], item[1].arrival_time, item[1].job_id))
    failed = set()
    for target, job in ranked:
        if target <= floor:
            return False
        if (target, job.gpus) in failed:
            continue
        for node in self.sim.cluster.nodes:
            if self.available(node.name) < job.gpus:
                continue
            short = job.gpus - self.free[node.name]
            evict = []
            for score, attempt in running.get(node.name, ()):
                if short <= 0:
                    break
                if score < target:
                    evict.append(attempt)
                    short -= attempt.gpus
            if evict and short <= 0:
                for attempt in evict:
                    self._interrupt(attempt, t)
                    self.queue.append(attempt.job)
                self.rebuild_heap()
                return True
        failed.add((target, job.gpus))
    return False


def eager_context(self, t):
    deficits = {}
    if self.tenants:
        live = dict(self.consumed)
        for attempt in self.entries.values():
            live[attempt.job.tenant] = live.get(attempt.job.tenant, 0.0) + (
                attempt.gpus * (t - attempt.start)
            )
        fleet, elapsed = self.fleet, t - self.fleet_since
        deficits = {
            name: self.entitled[name]
            + fleet * self.share_weight[name] / self.total_weight * elapsed
            - live.get(name, 0.0)
            for name in self.tenants
        }
    return SchedulingContext(
        now=t, tenants=self.tenants, usage_gpus=dict(self.usage), deficits=deficits
    )


def sorting_fair_share_place(self, pending, free_gpus, estimate, context=None):
    deficit = context.deficit if context is not None else (lambda tenant: 0.0)
    tenants = sorted({job.tenant for job in pending}, key=lambda tenant: (-deficit(tenant), tenant))
    rank = {tenant: index for index, tenant in enumerate(tenants)}
    return place_in_order(sorted(pending, key=lambda job: rank[job.tenant]), free_gpus)


def swap_in_scoring_scan(monkeypatch):
    policy = POLICIES.get("fair-share")
    monkeypatch.setattr(policy, "place", sorting_fair_share_place.__get__(policy))
    monkeypatch.setattr(_FleetRun, "_context", eager_context)
    monkeypatch.setattr(_FleetRun, "_try_preempt", scoring_try_preempt)


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


def replay(fleet, session, policies=POLICY_NAMES):
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
        policies=policies,
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

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(fleet=fleets)
    def test_reports_match_the_scoring_scan_oracles(self, session, fleet):
        fast = replay(fleet, session)
        with pytest.MonkeyPatch.context() as monkeypatch:
            swap_in_scoring_scan(monkeypatch)
            slow = replay(fleet, session)
        assert fast == slow

    def test_scoring_scan_oracles_are_swapped_in(self, monkeypatch):
        swap_in_scoring_scan(monkeypatch)
        assert POLICIES.get("fair-share").place.__func__ is sorting_fair_share_place
        assert _FleetRun._context is eager_context
        assert _FleetRun._try_preempt is scoring_try_preempt

    def test_oracles_are_swapped_in(self, monkeypatch):
        swap_in_oracles(monkeypatch)
        for name, place in ORACLE_PLACE.items():
            assert POLICIES.get(name).place.__func__ is place
        assert _FleetRun._try_preempt is oracle_try_preempt


# ---------------------------------------------------------------------- #
# A custom policy whose rank order is not the scan's order
# ---------------------------------------------------------------------- #
class PriorityThenShortest:
    """Highest tenant priority first, then shortest job; preempts by priority.

    Its ``rank_key`` breaks urgency ties by estimate, not by the scan's
    ``(arrival, job_id)``, so walking its ranked queue would try another
    equally urgent job first and evict other gangs.  Its placement follows
    urgency, so preemption cannot thrash.
    """

    name = "priority-then-shortest-test"
    tenant_aware = True
    preempts = True

    def urgency(self, job, context=None):
        return float(context.priority(job)) if context is not None else 0.0

    def rank_key(self, job, estimate, context=None):
        priority = context.priority(job) if context is not None else 0
        return (-float(priority), estimate(job), job.arrival_time, job.job_id)

    def place(self, pending, free_gpus, estimate, context=None):
        return place_in_order(in_rank_order(self, pending, estimate, context), free_gpus)


@pytest.fixture(scope="module")
def custom_ranked_policy():
    register_policy(PriorityThenShortest)
    yield PriorityThenShortest.name
    POLICIES.unregister(PriorityThenShortest.name)


def custom_policy_reports(fleet, session, name):
    fast = replay(fleet, session, policies=(name,))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_FleetRun, "_try_preempt", scoring_try_preempt)
        slow = replay(fleet, session, policies=(name,))
    return fast, slow


class TestCustomRankedPreemptingPolicy:
    def test_contended_fleet_matches_the_scoring_scan(self, session, custom_ranked_policy):
        # A fleet on which walking this policy's ranked queue evicts
        # differently from the scored and sorted scan.
        fleet = {
            "tenants": [
                TenantSpec("batch", rate=0.3),
                TenantSpec("prod", priority=2, rate=0.3),
                TenantSpec("dev", priority=1, rate=0.2),
            ],
            "num_jobs": 40,
            "seed": 10,
            "rate": 0.3,
            "slack": 900.0,
            "cluster": "a6000:4,2080ti:4",
            "faults": FaultModel(preempt_rate=0.01),
            "elastic": "restart",
            "fault_seed": 10,
        }
        fast, slow = custom_policy_reports(fleet, session, custom_ranked_policy)
        assert fast == slow
        records = fast[custom_ranked_policy]["records"]
        assert any(record["preemptions"] for record in records)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(fleet=fleets.filter(lambda fleet: fleet["tenants"] is not None))
    def test_reports_match_the_scoring_scan(self, session, custom_ranked_policy, fleet):
        fast, slow = custom_policy_reports(fleet, session, custom_ranked_policy)
        assert fast == slow
