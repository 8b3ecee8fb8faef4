"""Tests for placement policies and the policy registry."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.scheduler import (
    POLICIES,
    BestFitPacking,
    DeadlineAware,
    FIFOFirstFit,
    Placement,
    PolicyRegistry,
    PriorityFirstFit,
    RankedQueue,
    SchedulingContext,
    ShortestJobFirst,
    best_fit_node,
    first_fit_node,
    place_in_order,
    register_policy,
)
from repro.cluster.simulator import _SCAN_IN_RANK_ORDER
from repro.cluster.workload import JobSpec, TenantSpec
from repro.errors import ConfigurationError


def job(job_id, gpus, arrival=0.0):
    return JobSpec(job_id=job_id, arrival_time=arrival, gpus=gpus)


FREE = {"n0": 1, "n1": 4, "n2": 2}


class TestFitHelpers:
    def test_first_fit_scans_in_order(self):
        assert first_fit_node(job("a", 1), FREE) == "n0"
        assert first_fit_node(job("a", 2), FREE) == "n1"
        assert first_fit_node(job("a", 8), FREE) is None

    def test_best_fit_minimises_stranded_gpus(self):
        assert best_fit_node(job("a", 1), FREE) == "n0"
        assert best_fit_node(job("a", 2), FREE) == "n2"
        assert best_fit_node(job("a", 4), FREE) == "n1"
        assert best_fit_node(job("a", 8), FREE) is None


class NotIterable:
    """A queue that fails the test if anything walks it."""

    def __iter__(self):
        raise AssertionError("the queue was walked")


class TestPlaceInOrder:
    def test_no_free_gpu_returns_before_walking_the_queue(self):
        assert place_in_order(NotIterable(), {"n0": 0, "n1": 0}) is None
        assert place_in_order(NotIterable(), {}) is None

    def test_skips_gangs_wider_than_every_node(self):
        pending = (job("wide", 8), job("narrow", 2))
        assert place_in_order(pending, FREE) == Placement("narrow", "n1")


class TestBuiltInPolicies:
    def test_builtins_registered_in_order(self):
        assert POLICIES.names()[:3] == ("fifo", "best-fit", "sjf")

    def test_fifo_blocks_behind_queue_head(self):
        policy = FIFOFirstFit()
        pending = (job("big", 4), job("small", 1))
        # Head fits -> placed first-fit.
        assert policy.place(pending, {"n0": 4}, None) == Placement("big", "n0")
        # Head does not fit -> nothing starts, even though "small" would.
        assert policy.place(pending, {"n0": 2}, None) is None
        assert policy.place((), {"n0": 4}, None) is None

    def test_best_fit_skips_blockers_and_packs(self):
        policy = BestFitPacking()
        pending = (job("big", 4), job("small", 1))
        free = {"n0": 2, "n1": 1}
        assert policy.place(pending, free, None) == Placement("small", "n1")
        assert policy.place((job("big", 4),), free, None) is None

    def test_sjf_orders_by_estimate(self):
        policy = ShortestJobFirst()
        pending = (job("slow", 1, arrival=0.0), job("fast", 1, arrival=1.0))
        estimates = {"slow": 100.0, "fast": 1.0}
        placement = policy.place(
            pending, {"n0": 4}, lambda j: estimates[j.job_id]
        )
        assert placement == Placement("fast", "n0")

    def test_sjf_tie_breaks_on_arrival_then_id(self):
        policy = ShortestJobFirst()
        pending = (job("b", 1, arrival=2.0), job("a", 1, arrival=2.0))
        placement = policy.place(pending, {"n0": 1}, lambda j: 10.0)
        assert placement.job_id == "a"


class TestRankedPlacement:
    """Direct callers pass plain sequences; the simulator passes a RankedQueue."""

    TENANTS = {
        "low": TenantSpec("low"),
        "mid": TenantSpec("mid", priority=1),
        "high": TenantSpec("high", priority=3),
    }

    def roster(self):
        tenants = ("low", "mid", "high", "mid", "low", "high", "low", "mid")
        deadlines = (None, 400.0, 90.0, None, 250.0, 90.0, 30.0, 600.0)
        return [
            JobSpec(
                job_id=f"j{index}",
                arrival_time=float(index),
                gpus=1 + index % 3,
                tenant=tenant,
                deadline=deadline,
            )
            for index, (tenant, deadline) in enumerate(zip(tenants, deadlines))
        ]

    def expected(self, policy, jobs, free, context):
        ranked = sorted(jobs, key=lambda queued: policy.rank_key(queued, None, context))
        return place_in_order(ranked, free)

    @pytest.mark.parametrize("policy", [PriorityFirstFit(), DeadlineAware()])
    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_plain_tuple_gets_the_ranked_answer(self, policy, seed):
        jobs = self.roster()
        context = SchedulingContext(tenants=self.TENANTS)
        free = {"n0": 1, "n1": 2}
        expected = self.expected(policy, jobs, free, context)
        assert expected is not None
        random.Random(seed).shuffle(jobs)
        assert policy.place(tuple(jobs), free, None, context) == expected

    def test_priority_ranks_high_tenants_first_then_arrival(self):
        policy = PriorityFirstFit()
        context = SchedulingContext(tenants=self.TENANTS)
        jobs = self.roster()[::-1]
        assert policy.place(tuple(jobs), {"n0": 4}, None, context) == Placement("j2", "n0")
        # Without a context every tenant ranks equal: earliest arrival wins.
        assert policy.place(tuple(jobs), {"n0": 4}, None) == Placement("j0", "n0")

    def test_deadline_aware_ranks_deadline_free_jobs_last(self):
        policy = DeadlineAware()
        jobs = self.roster()
        assert policy.place(tuple(jobs), {"n0": 1}, None) == Placement("j6", "n0")
        free_jobs = tuple(queued for queued in jobs if queued.deadline is None)
        with_deadline = jobs[4]  # 250 s, but later than both deadline-free jobs
        assert policy.place(free_jobs + (with_deadline,), {"n0": 4}, None) == Placement(
            "j4", "n0"
        )

    def test_own_ranked_view_is_taken_as_given(self):
        policy = DeadlineAware()
        jobs = self.roster()
        # Deliberately not in rank order: the policy trusts its own view.
        view = RankedQueue(jobs, policy)
        assert policy.place(view, {"n0": 4}, None) == Placement("j0", "n0")
        # Another policy's view is sorted like any plain sequence.
        foreign = RankedQueue(jobs, PriorityFirstFit())
        assert policy.place(foreign, {"n0": 4}, None) == Placement("j6", "n0")

    def test_sjf_rank_key_matches_its_direct_call(self):
        policy = ShortestJobFirst()
        jobs = self.roster()
        estimates = {queued.job_id: float(len(jobs) - index) for index, queued in enumerate(jobs)}

        def estimate(queued):
            return estimates[queued.job_id]

        random.Random(0).shuffle(jobs)
        assert policy.place(tuple(jobs), {"n0": 1}, estimate) == Placement("j6", "n0")


class TestPolicyRegistry:
    def test_register_get_unregister(self):
        registry = PolicyRegistry()

        class Custom:
            name = "custom"

            def place(self, pending, free_gpus, estimate):
                return None

        registry.register(Custom())
        assert "custom" in registry
        assert len(registry) == 1
        assert registry.get("custom").name == "custom"
        registry.unregister("custom")
        assert "custom" not in registry
        with pytest.raises(ConfigurationError):
            registry.unregister("custom")

    def test_registration_validation(self):
        registry = PolicyRegistry()

        class NoName:
            def place(self, pending, free_gpus, estimate):
                return None

        with pytest.raises(ConfigurationError, match="name"):
            registry.register(NoName())

        class NoPlace:
            name = "noplace"

        with pytest.raises(ConfigurationError, match="place"):
            registry.register(NoPlace())

    def test_duplicate_requires_replace(self):
        registry = PolicyRegistry()

        class P:
            name = "p"

            def place(self, pending, free_gpus, estimate):
                return None

        registry.register(P())
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(P())
        registry.register(P(), replace=True)

    def test_unknown_policy_error_names_known_set(self):
        with pytest.raises(ConfigurationError, match="fifo"):
            POLICIES.get("round-robin")

    def test_register_policy_decorator_on_global_registry(self):
        @register_policy
        class Throwaway:
            name = "throwaway-test-policy"

            def place(self, pending, free_gpus, estimate):
                return None

        try:
            assert "throwaway-test-policy" in POLICIES
        finally:
            POLICIES.unregister("throwaway-test-policy")


# ---------------------------------------------------------------------- #
# The preemption scan walks a ranked queue as it stands
# ---------------------------------------------------------------------- #
def scan_in_rank_order_policies():
    return [
        name
        for name in POLICIES.names()
        if type(POLICIES.get(name)) in _SCAN_IN_RANK_ORDER
    ]


TENANT_NAMES = ("prod", "batch", "dev", "undeclared")


@st.composite
def ranked_fleets(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 500.0, allow_nan=False),
                st.sampled_from(TENANT_NAMES),
                st.one_of(st.none(), st.floats(1.0, 400.0, allow_nan=False)),
                st.integers(1, 4),
            ),
            max_size=24,
        )
    )
    jobs = [
        JobSpec(
            job_id=f"j{index:02d}",
            arrival_time=arrival,
            gpus=gpus,
            tenant=tenant,
            deadline=None if slack is None else arrival + slack,
        )
        for index, (arrival, tenant, slack, gpus) in enumerate(rows)
    ]
    priorities = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
    tenants = {
        name: TenantSpec(name, priority=priority)
        for name, priority in zip(TENANT_NAMES, priorities)
    }
    return jobs, SchedulingContext(now=draw(st.floats(0.0, 900.0)), tenants=tenants)


def test_the_builtin_preempting_ranked_policies_are_covered():
    # Every built-in policy that preempts and ranks is one the scan walks
    # in rank order, so each is checked below.
    preempting_ranked = [
        name
        for name in POLICIES.names()
        if getattr(POLICIES.get(name), "preempts", False)
        and hasattr(POLICIES.get(name), "rank_key")
    ]
    assert preempting_ranked == ["priority", "deadline-aware"]
    assert scan_in_rank_order_policies() == preempting_ranked


@pytest.mark.parametrize("name", scan_in_rank_order_policies())
@settings(max_examples=200, deadline=None)
@given(fleet=ranked_fleets())
def test_rank_order_is_the_scan_order(name, fleet):
    # The scan tries jobs by (-urgency, arrival, id) and stops at the first
    # one no running gang is less urgent than; walking the ranked queue
    # instead is exact only if rank_key sorts into that very order.
    jobs, context = fleet
    policy = POLICIES.get(name)
    ranked = sorted(jobs, key=lambda job: policy.rank_key(job, None, context))
    urgencies = [policy.urgency(job, context) for job in ranked]
    assert urgencies == sorted(urgencies, reverse=True)
    assert ranked == sorted(
        jobs, key=lambda job: (-policy.urgency(job, context), job.arrival_time, job.job_id)
    )
