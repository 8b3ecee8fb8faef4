"""Tests for the cluster event loop, cache amortisation and fleet reports."""

from dataclasses import replace

import pytest

from repro.analysis.cluster_report import (
    ClusterReport,
    JobRecord,
    compare_policies,
    format_cluster_report,
    percentile,
)
from repro.cluster.faults import FaultEvent, FaultModel, FaultTrace
from repro.cluster.scheduler import (
    POLICIES,
    Placement,
    RankedQueue,
    place_in_order,
    register_policy,
)
from repro.cluster.simulator import ClusterSimulator, run_policy_comparison
from repro.cluster.spec import ClusterSpec, NodeSpec, default_cluster
from repro.cluster.workload import (
    JobMix,
    JobSpec,
    TenantSpec,
    Workload,
    poisson_workload,
    tenant_workload,
)
from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.errors import ClusterError, ConfigurationError


def job(job_id, arrival, gpus, **overrides):
    defaults = dict(
        job_id=job_id,
        arrival_time=arrival,
        gpus=gpus,
        batch_size=128,
        strategy="TR",
        simulated_steps=4,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


@pytest.fixture
def small_cluster():
    return ClusterSpec(
        name="2-node",
        nodes=(
            NodeSpec(name="a", server="a6000", num_gpus=4),
            NodeSpec(name="b", server="2080ti", num_gpus=2),
        ),
    )


class TestEventLoop:
    def test_single_job_runs_immediately(self, small_cluster):
        simulator = ClusterSimulator(small_cluster, policy="fifo")
        workload = Workload(name="one", jobs=(job("j0", 5.0, 2),))
        report = simulator.run(workload)
        record = report.records[0]
        assert record.node == "a"
        assert record.start_time == 5.0
        assert record.wait_time == 0.0
        assert record.finish_time == pytest.approx(
            5.0 + simulator.service_time(workload.jobs[0], small_cluster.nodes[0])
        )

    def test_queueing_when_fleet_full(self, small_cluster):
        # Two 4-GPU gangs: only node "a" can hold them, so they serialise.
        workload = Workload(
            name="contended", jobs=(job("j0", 0.0, 4), job("j1", 0.0, 4))
        )
        report = ClusterSimulator(small_cluster, policy="fifo").run(workload)
        first, second = report.records
        assert first.node == "a" and second.node == "a"
        assert second.start_time == pytest.approx(first.finish_time)
        assert second.wait_time > 0.0

    def test_epochs_scale_service_time(self, small_cluster):
        simulator = ClusterSimulator(small_cluster)
        one = job("j0", 0.0, 2)
        three = job("j1", 0.0, 2, epochs=3)
        node = small_cluster.nodes[0]
        assert simulator.service_time(three, node) == pytest.approx(
            3 * simulator.service_time(one, node)
        )

    def test_oversized_gang_rejected_upfront(self, small_cluster):
        workload = Workload(name="fat", jobs=(job("j0", 0.0, 8),))
        with pytest.raises(ClusterError, match="8-GPU gang"):
            ClusterSimulator(small_cluster).run(workload)

    def test_completion_frees_gpus_for_waiting_gang(self, small_cluster):
        # j1's 4-gang must wait for j0 to release node "a"; j2's 2-gang
        # slots onto node "b" meanwhile (best-fit skips the blocked head).
        workload = Workload(
            name="interleave",
            jobs=(job("j0", 0.0, 4), job("j1", 1.0, 4), job("j2", 2.0, 2)),
        )
        report = ClusterSimulator(small_cluster, policy="best-fit").run(workload)
        by_id = {record.job_id: record for record in report.records}
        assert by_id["j1"].start_time == pytest.approx(by_id["j0"].finish_time)
        assert by_id["j2"].node == "b"
        assert by_id["j2"].start_time == pytest.approx(2.0)


class TestDeterminismAndAmortisation:
    def test_same_seed_same_report(self):
        cluster = default_cluster()
        workload = poisson_workload(40, rate=0.5, seed=11)
        first = ClusterSimulator(cluster, policy="sjf").run(workload)
        second = ClusterSimulator(cluster, policy="sjf").run(workload)
        assert first.to_dict() == second.to_dict()

    def test_session_caches_amortise_across_jobs(self):
        cluster = default_cluster()
        mix = JobMix(
            tasks=("nas",),
            datasets=("cifar10",),
            batch_sizes=(128, 256),
            gpu_demands=(2, 4),
            strategies=("TR+DPU+AHD",),
            epochs=(1, 2),
        )
        workload = poisson_workload(200, rate=0.5, seed=0, mix=mix)
        session = Session()
        simulator = ClusterSimulator(cluster, policy="best-fit", session=session)
        report = simulator.run(workload)
        assert report.num_jobs == 200
        # 2 batch sizes x 2 gang sizes x 2 node types = at most 8 cells.
        assert session.stats.profile_builds <= 8
        assert simulator.simulations_run <= 8
        assert session.stats.profile_builds < len(workload) / 10

    def test_policy_comparison_shares_session(self):
        cluster = default_cluster()
        workload = poisson_workload(30, rate=0.5, seed=2)
        session = Session()
        reports = run_policy_comparison(cluster, workload, session=session)
        # The default policy set is the whole registry.
        assert set(reports) == set(POLICIES.names())
        for report in reports.values():
            assert report.num_jobs == 30
        # All policies see the same cells: profiling happened once.
        assert session.stats.profile_hits > 0

    def test_policy_comparison_shares_epoch_time_memo(self):
        """Later policies reuse earlier policies' simulated epoch times."""
        cluster = default_cluster()
        workload = poisson_workload(30, rate=0.5, seed=2)

        session_one = Session()
        run_policy_comparison(cluster, workload, policies=("fifo",), session=session_one)
        single_policy_runs = session_one.stats.runs

        # An identical second pass over the same memo adds zero simulations.
        session_twice = Session()
        run_policy_comparison(
            cluster, workload, policies=("fifo", "fifo"), session=session_twice
        )
        assert session_twice.stats.runs == single_policy_runs

        # Distinct policies may land jobs on new (cell, node-type) combos,
        # but sharing still keeps the total well under per-policy cost.
        session_three = Session()
        run_policy_comparison(
            cluster, workload, policies=("fifo", "best-fit", "sjf"),
            session=session_three,
        )
        assert session_three.stats.runs < 3 * single_policy_runs

    def test_explicit_epoch_time_cache_is_shared(self, small_cluster):
        shared = {}
        session = Session()
        workload = Workload(name="w", jobs=(job("j0", 0.0, 2),))
        ClusterSimulator(
            small_cluster, session=session, epoch_time_cache=shared
        ).run(workload)
        runs_after_first = session.stats.runs
        second = ClusterSimulator(
            small_cluster, session=session, epoch_time_cache=shared
        )
        second.run(workload)
        assert session.stats.runs == runs_after_first
        assert second.simulations_run == len(shared)

    def test_acceptance_criterion_200_jobs_all_policies(self):
        """Seeded 200-job Poisson workload, 4-node cluster, every policy."""
        cluster = default_cluster()
        workload = poisson_workload(200, rate=0.5, seed=0)
        session = Session()
        reports = run_policy_comparison(cluster, workload, session=session)
        again = run_policy_comparison(
            cluster, workload, session=Session()
        )
        for name, report in reports.items():
            assert report.num_jobs == 200
            assert report.makespan > 0
            assert 0 < report.gpu_utilization <= 1
            assert report.jobs_per_hour > 0
            assert report.to_dict() == again[name].to_dict()
        assert session.stats.profile_builds * 4 < len(workload)


class TestPolicyBehaviourOnFleet:
    def test_best_fit_packs_no_worse_than_fifo(self):
        cluster = default_cluster()
        workload = poisson_workload(80, rate=0.5, seed=4)
        reports = run_policy_comparison(
            cluster, workload, policies=("fifo", "best-fit")
        )
        assert reports["best-fit"].makespan <= reports["fifo"].makespan + 1e-9

    def test_sjf_mean_wait_no_worse_than_fifo(self):
        cluster = default_cluster()
        workload = poisson_workload(80, rate=0.5, seed=4)
        reports = run_policy_comparison(cluster, workload, policies=("fifo", "sjf"))
        assert reports["sjf"].mean_wait <= reports["fifo"].mean_wait + 1e-9

    def test_misbehaving_policy_is_caught(self, small_cluster):
        @register_policy
        class Overcommit:
            name = "overcommit-test"

            def place(self, pending, free_gpus, estimate):
                if not pending:
                    return None
                return Placement(job_id=pending[0].job_id, node="a")

        try:
            workload = Workload(
                name="w", jobs=(job("j0", 0.0, 4), job("j1", 0.0, 4))
            )
            with pytest.raises(ClusterError, match="free"):
                ClusterSimulator(small_cluster, policy="overcommit-test").run(workload)
        finally:
            POLICIES.unregister("overcommit-test")

    def test_phantom_placement_is_caught(self, small_cluster):
        @register_policy
        class Phantom:
            name = "phantom-test"

            def place(self, pending, free_gpus, estimate):
                return Placement(job_id="ghost", node="a") if pending else None

        try:
            workload = Workload(name="w", jobs=(job("j0", 0.0, 2),))
            with pytest.raises(ClusterError, match="unknown job"):
                ClusterSimulator(small_cluster, policy="phantom-test").run(workload)
        finally:
            POLICIES.unregister("phantom-test")

    def test_placement_of_an_already_placed_job_is_unknown(self, small_cluster):
        # The job is looked up by id in the queue: once placed, its id is
        # no longer there.
        @register_policy
        class Stale:
            name = "stale-test"

            def place(self, pending, free_gpus, estimate):
                return Placement(job_id="j0", node="a") if pending else None

        try:
            workload = Workload(name="w", jobs=(job("j0", 0.0, 1), job("j1", 0.0, 1)))
            with pytest.raises(
                ClusterError, match=r"policy 'stale-test' placed unknown job 'j0' \(not in queue\)"
            ):
                ClusterSimulator(small_cluster, policy="stale-test").run(workload)
        finally:
            POLICIES.unregister("stale-test")

    def test_placement_of_a_job_hidden_by_its_quota_is_unknown(self, small_cluster):
        # j1 is queued, but its tenant's quota is taken by j0, so the
        # policy never saw it: naming it is placing an unknown job.
        @register_policy
        class Peeker:
            name = "peeker-test"

            named_j1 = False

            def place(self, pending, free_gpus, estimate):
                if not pending:
                    return None
                if pending[0].job_id == "j0" or self.named_j1:
                    return Placement(job_id=pending[0].job_id, node="a")
                self.named_j1 = True
                return Placement(job_id="j1", node="a")

        try:
            workload = Workload(
                name="w",
                jobs=(
                    job("j0", 0.0, 2, tenant="capped"),
                    job("j1", 0.0, 2, tenant="capped"),
                    job("j2", 0.0, 1, tenant="free"),
                ),
                tenants=(TenantSpec("capped", quota_gpus=2), TenantSpec("free")),
            )
            with pytest.raises(ClusterError, match=r"placed unknown job 'j1' \(not in queue\)"):
                ClusterSimulator(small_cluster, policy="peeker-test").run(workload)
        finally:
            POLICIES.unregister("peeker-test")

    def test_deficits_read_after_their_instant_raise(self, small_cluster):
        # The deficits are computed on first read; a context kept past its
        # drain instant would give numbers of no instant, so reading them
        # then fails instead.
        reads = []

        @register_policy
        class Hoarder:
            name = "hoarder-test"
            tenant_aware = True

            kept = []

            def place(self, pending, free_gpus, estimate, context=None):
                reads.append(dict(context.deficits))  # during the call: fine
                if self.kept:
                    dict(self.kept[0].deficits)
                self.kept.append(context)
                return place_in_order(pending, free_gpus)

        try:
            workload = Workload(
                name="w",
                jobs=(job("j0", 0.0, 1, tenant="t"), job("j1", 10.0, 1, tenant="t")),
                tenants=(TenantSpec("t"),),
            )
            with pytest.raises(ClusterError, match=r"t=0\.0 read after it ended"):
                ClusterSimulator(small_cluster, policy="hoarder-test").run(workload)
            assert reads == [{"t": 0.0}, {"t": 50.0}]  # j0 at t=0, j1 at t=10
        finally:
            POLICIES.unregister("hoarder-test")

    def test_place_order_against_urgency_raises_instead_of_livelocking(self):
        # urgency is the tenant priority, but place starts the earliest
        # arrival: each scan evicts "low" for "high", and the next pass
        # re-places "low" at the same instant.  The drain must name the
        # cycle; the place-call budget keeps a regression from hanging.
        calls = []

        @register_policy
        class Stubborn:
            name = "stubborn-test"
            tenant_aware = True
            preempts = True

            def urgency(self, job, context):
                return float(context.priority(job)) if context is not None else 0.0

            def place(self, pending, free_gpus, estimate, context=None):
                calls.append(None)
                if len(calls) > 1000:
                    raise RuntimeError("the drain did not stop")
                by_arrival = sorted(pending, key=lambda job: job.arrival_time)
                return place_in_order(by_arrival, free_gpus)

        try:
            cluster = ClusterSpec(
                name="one", nodes=(NodeSpec(name="a", server="a6000", num_gpus=4),)
            )
            workload = Workload(
                name="w",
                jobs=(job("low", 0.0, 4, tenant="batch"), job("high", 1.0, 4, tenant="prod")),
                tenants=(TenantSpec("batch"), TenantSpec("prod", priority=2)),
            )
            with pytest.raises(
                ClusterError,
                match=r"policy 'stubborn-test' livelocked at t=1\.0: .*re-placed: \['low'\]",
            ):
                ClusterSimulator(cluster, policy="stubborn-test").run(workload)
            assert len(calls) < 10
        finally:
            POLICIES.unregister("stubborn-test")

    def test_placement_on_unknown_node_blames_the_policy(self, small_cluster):
        @register_policy
        class Lost:
            name = "lost-test"

            def place(self, pending, free_gpus, estimate):
                return Placement(job_id=pending[0].job_id, node="nope") if pending else None

        try:
            workload = Workload(name="w", jobs=(job("j0", 0.0, 2),))
            with pytest.raises(
                ClusterError,
                match=r"policy 'lost-test' placed job 'j0' on unknown node 'nope'",
            ):
                ClusterSimulator(small_cluster, policy="lost-test").run(workload)
        finally:
            POLICIES.unregister("lost-test")

    @pytest.mark.parametrize(
        "faults",
        [
            None,
            FaultTrace(
                "blip",
                (FaultEvent(time=1.0, kind="straggler", node="a", duration=5.0, factor=2.0),),
            ),
        ],
        ids=["plain", "faulted"],
    )
    def test_stuck_policy_is_caught(self, small_cluster, faults):
        @register_policy
        class Refuser:
            name = "refuse-test"

            def place(self, pending, free_gpus, estimate):
                return None

        try:
            workload = Workload(name="w", jobs=(job("j0", 0.0, 2), job("j1", 3.0, 1)))
            simulator = ClusterSimulator(small_cluster, policy="refuse-test", faults=faults)
            with pytest.raises(
                ClusterError,
                match=r"made no progress with an idle fleet; stuck jobs: \['j0', 'j1'\]",
            ):
                simulator.run(workload)
        finally:
            POLICIES.unregister("refuse-test")

    @pytest.mark.parametrize("policy_name", ["sjf", "priority", "deadline-aware"])
    def test_killed_gangs_stay_in_arrival_order_under_a_ranked_policy(self, policy_name):
        # j1..j3 queue behind j0 in arrival order; every ranked policy ranks
        # them the other way round (shorter, more urgent, earlier deadline).
        # The crash strands all four 4-GPU gangs; j0 is requeued last.
        tenants = (
            TenantSpec("t1"), TenantSpec("t2", priority=1), TenantSpec("t3", priority=2),
        )
        jobs = (job("j0", 0.0, 4, epochs=5, tenant="t3", deadline=100.0),) + tuple(
            job(f"j{index}", 0.1 * index, 4, epochs=4 - index,
                tenant=f"t{index}", deadline=1000.0 - 100.0 * index)
            for index in (1, 2, 3)
        )
        workload = Workload(name="stranded", jobs=jobs, tenants=tenants)
        trace = FaultTrace(
            "loss", (FaultEvent(time=5.0, kind="crash", node="a6000-0"),)
        )
        cluster = ClusterSpec(
            name="two",
            nodes=(
                NodeSpec(name="a6000-0", server="a6000", num_gpus=4),
                NodeSpec(name="2080ti-0", server="2080ti", num_gpus=2),
            ),
        )
        simulator = ClusterSimulator(cluster, policy=policy_name, faults=trace)
        report = simulator.run(workload)
        assert report.num_jobs == 0
        assert [entry["job_id"] for entry in report.killed] == ["j1", "j2", "j3", "j0"]

    def test_custom_policy_sees_its_rank_order_or_arrival_order(self, small_cluster):
        views = {}

        class Recorder:
            def place(self, pending, free_gpus, estimate):
                views.setdefault(self.name, pending)
                return place_in_order(pending[:1], free_gpus)

        @register_policy
        class Arrival(Recorder):
            name = "arrival-test"

        @register_policy
        class Reversed(Recorder):
            name = "reversed-test"

            def rank_key(self, job, estimate, context=None):
                return -int(job.job_id[1:])

        try:
            workload = Workload(
                name="w", jobs=tuple(job(f"j{index}", 0.0, 1) for index in range(3))
            )
            for name in ("arrival-test", "reversed-test"):
                ClusterSimulator(small_cluster, policy=name).run(workload)
            arrival, ranked = views["arrival-test"], views["reversed-test"]
            assert type(arrival) is tuple
            assert [queued.job_id for queued in arrival] == ["j0", "j1", "j2"]
            assert isinstance(ranked, RankedQueue)
            assert ranked.ranked_by is POLICIES.get("reversed-test")
            assert [queued.job_id for queued in ranked] == ["j2", "j1", "j0"]
        finally:
            POLICIES.unregister("arrival-test")
            POLICIES.unregister("reversed-test")


class TestPreemptionGate:
    """A plain run never ranks urgency: that pass at every stalled drain
    made plain fleets of the preempting policies 20-30x slower."""

    @staticmethod
    def urgency_calls_outside_place(policy_name, workload, monkeypatch):
        policy = POLICIES.get(policy_name)
        counts = {"outside": 0}
        placing = []
        place, urgency = policy.place, policy.urgency

        def counting_place(*args, **kwargs):
            placing.append(True)
            try:
                return place(*args, **kwargs)
            finally:
                placing.pop()

        def counting_urgency(job, context):
            # priority's own place ranks by urgency; only count the rest.
            if not placing:
                counts["outside"] += 1
            return urgency(job, context)

        monkeypatch.setattr(policy, "place", counting_place)
        monkeypatch.setattr(policy, "urgency", counting_urgency)
        report = ClusterSimulator(default_cluster(), policy=policy_name).run(workload)
        assert report.num_jobs == len(workload.jobs)
        return counts["outside"]

    @pytest.mark.parametrize("policy", ["priority", "fair-share", "deadline-aware"])
    def test_plain_run_calls_urgency_zero_times(self, policy, monkeypatch):
        workload = poisson_workload(60, rate=2.0, seed=3)  # saturated: drains stall
        assert self.urgency_calls_outside_place(policy, workload, monkeypatch) == 0

    def test_declared_tenant_enables_the_preemption_pass(self, monkeypatch):
        plain = poisson_workload(60, rate=2.0, seed=3)
        tenanted = replace(plain, tenants=(TenantSpec("default"),))
        assert self.urgency_calls_outside_place("priority", tenanted, monkeypatch) > 0


class TestPlacementCost:
    """Deterministic call counts for the placement and preemption paths.

    SJF asked the estimator about every queued job on every decision, and
    each answer built an ``ExperimentConfig``; ``_try_preempt`` re-scored
    every running gang for each starved job and node.  Now a ranked
    policy's key is computed once per enqueue, each estimate builds one
    config, and the preemption scan is one pass over data computed once:
    for priority and deadline-aware it walks the ranked queue only as far
    as the first job that beats no running gang.
    """

    @staticmethod
    def estimate_key(job):
        return (
            job.task,
            job.dataset,
            job.batch_size,
            job.gpus,
            job.strategy,
            job.simulated_steps,
            job.epochs,
        )

    def test_sjf_builds_one_config_per_distinct_estimate(self, monkeypatch):
        workload = poisson_workload(600, rate=0.5, seed=0)
        simulator = ClusterSimulator(default_cluster(), policy="sjf")
        estimate, build = simulator.estimate_service_time, JobSpec.experiment_config
        estimating = []
        counts = {"estimates": 0, "configs": 0}

        def counting_estimate(job):
            counts["estimates"] += 1
            estimating.append(True)
            try:
                return estimate(job)
            finally:
                estimating.pop()

        def counting_build(job, server):
            counts["configs"] += bool(estimating)
            return build(job, server)

        monkeypatch.setattr(simulator, "estimate_service_time", counting_estimate)
        monkeypatch.setattr(JobSpec, "experiment_config", counting_build)
        assert simulator.run(workload).num_jobs == 600
        distinct = {self.estimate_key(job) for job in workload.jobs}
        assert counts["estimates"] == len(workload.jobs)  # one rank per arrival...
        assert counts["configs"] <= len(distinct)  # ...and one build per key

    @staticmethod
    def saturated_tenant_fleet():
        roster = (
            TenantSpec("batch", rate=0.4),
            TenantSpec("prod", priority=2, deadline_policy="strict", rate=0.2),
        )
        return tenant_workload(roster, 120, seed=5, deadline_slack=300.0)

    @pytest.mark.parametrize("policy_name", ["sjf", "priority", "deadline-aware"])
    def test_rank_key_once_per_enqueue_and_dequeue(self, policy_name, monkeypatch):
        from repro.cluster.simulator import _PendingQueue

        if policy_name == "sjf":
            workload = poisson_workload(600, rate=0.5, seed=0)
        else:
            workload = self.saturated_tenant_fleet()
        simulator = ClusterSimulator(default_cluster(), policy=policy_name)
        policy = simulator.policy
        rank_key, estimate = policy.rank_key, simulator.estimate_service_time
        append, remove = _PendingQueue.append, _PendingQueue.remove
        calls = {"rank": 0, "estimate": 0, "enqueue": 0, "dequeue": 0}

        def counting_rank_key(job, estimate, context=None):
            calls["rank"] += 1
            return rank_key(job, estimate, context)

        def counting_estimate(job):
            calls["estimate"] += 1
            return estimate(job)

        def counting_append(queue, job):
            calls["enqueue"] += 1
            return append(queue, job)

        def counting_remove(queue, job):
            calls["dequeue"] += 1
            return remove(queue, job)

        monkeypatch.setattr(policy, "rank_key", counting_rank_key)
        monkeypatch.setattr(simulator, "estimate_service_time", counting_estimate)
        monkeypatch.setattr(_PendingQueue, "append", counting_append)
        monkeypatch.setattr(_PendingQueue, "remove", counting_remove)
        report = simulator.run(workload)
        budget = calls["enqueue"] + calls["dequeue"]
        assert calls["dequeue"] == len(report.records) + report.jobs_killed + sum(
            record.preemptions for record in report.records
        )
        assert 0 < calls["rank"] <= budget
        assert calls["estimate"] <= budget
        if policy_name == "sjf":
            assert report.num_jobs == 600
        else:  # saturated: gangs are evicted and ranked again on requeue
            assert calls["enqueue"] > len(workload.jobs)

    def test_gang_wider_than_its_quota_is_never_ranked(self, small_cluster, monkeypatch):
        # The per-decision sort only ever saw quota-eligible jobs, so it
        # never asked for the estimate (a simulation) of a gang that can
        # never start; ranking on enqueue must not ask either.
        workload = Workload(
            name="quota",
            jobs=(job("fits", 0.0, 2), job("never", 0.1, 4, batch_size=256)),
            tenants=(TenantSpec("default", quota_gpus=2),),
        )
        simulator = ClusterSimulator(small_cluster, policy="sjf", session=Session())
        ranked = []
        rank_key = simulator.policy.rank_key

        def recording_rank_key(job, estimate, context=None):
            ranked.append(job.job_id)
            return rank_key(job, estimate, context)

        monkeypatch.setattr(simulator.policy, "rank_key", recording_rank_key)
        report = simulator.run(workload)
        assert [record.job_id for record in report.records] == ["fits"]
        assert [entry["job_id"] for entry in report.killed] == ["never"]
        assert ranked == ["fits"]
        assert simulator.simulations_run == 1

    def test_estimate_memo_key_covers_every_field_it_reads(self, small_cluster):
        base = job("j0", 0.0, 2)
        variants = [
            base,
            replace(base, task="compression"),
            replace(base, dataset="imagenet"),
            replace(base, batch_size=256),
            replace(base, gpus=4),
            replace(base, strategy="TR+DPU+AHD"),
            replace(base, simulated_steps=6),
            replace(base, epochs=3),
        ]
        session = Session()
        warm = ClusterSimulator(small_cluster, session=session)
        for variant in variants:
            warm.estimate_service_time(variant)
        for variant in variants:
            fresh = ClusterSimulator(small_cluster, session=session)
            assert warm.estimate_service_time(variant) == fresh.estimate_service_time(variant)
        # The job id is not part of the key: a renamed job shares the entry.
        assert len(warm._estimates) == len(variants)
        warm.estimate_service_time(replace(base, job_id="other"))
        assert len(warm._estimates) == len(variants)

    @staticmethod
    def scan_budget(run, urgency):
        """The most urgency calls one preemption scan may make.

        Each running gang is scored once.  A scan in rank order (priority,
        deadline-aware) then walks the queue most urgent first and stops
        at the first job no gang is strictly less urgent than, so it scores
        the jobs that beat the lowest running urgency plus at most one; any
        other scan scores every eligible job.
        """
        context = run.pass_context
        running = [attempt.job for attempt in run.entries.values()]
        eligible = list(run._eligible({}))
        if not run.scan_ranked:
            return len(running) + len(eligible)
        floor = min(urgency(job, context) for job in running)
        beating = sum(urgency(job, context) > floor for job in eligible)
        return len(running) + min(len(eligible), beating + 1)

    @pytest.mark.parametrize("policy_name", ["priority", "fair-share", "deadline-aware"])
    def test_preemption_scores_each_gang_and_job_once(self, policy_name, monkeypatch):
        from repro.cluster.simulator import _FleetRun

        workload = self.saturated_tenant_fleet()
        policy = POLICIES.get(policy_name)
        urgency, try_preempt = policy.urgency, _FleetRun._try_preempt
        calls = {"urgency": 0, "preempt": 0}
        over_budget = []

        def counting_urgency(job, context):
            calls["urgency"] += 1
            return urgency(job, context)

        def checked_try_preempt(run, t):
            budget = self.scan_budget(run, urgency) if run.queue and run.entries else 0
            before = calls["urgency"]
            calls["preempt"] += 1
            evicted = try_preempt(run, t)
            scores = calls["urgency"] - before
            if scores > budget:
                over_budget.append((t, scores, budget))
            return evicted

        monkeypatch.setattr(policy, "urgency", counting_urgency)
        monkeypatch.setattr(_FleetRun, "_try_preempt", checked_try_preempt)
        report = ClusterSimulator(default_cluster(), policy=policy_name).run(workload)
        assert calls["preempt"] > 10  # the fleet is saturated: drains stall
        assert sum(record.preemptions for record in report.records) > 0
        assert over_budget == []


class TestClusterReport:
    def make_report(self):
        records = (
            JobRecord(
                job_id="j0", node="a", gpus=2, strategy="TR", cell="c",
                arrival_time=0.0, start_time=0.0, finish_time=10.0,
            ),
            JobRecord(
                job_id="j1", node="b", gpus=1, strategy="TR", cell="c",
                arrival_time=0.0, start_time=5.0, finish_time=20.0,
            ),
        )
        return ClusterReport(
            policy="fifo",
            cluster_name="test",
            workload_name="w",
            node_gpus={"a": 2, "b": 2},
            records=records,
        )

    def test_scalar_metrics(self):
        report = self.make_report()
        assert report.num_jobs == 2
        assert report.makespan == 20.0
        assert report.mean_wait == pytest.approx(2.5)
        assert report.p95_wait == pytest.approx(5.0)
        # busy gpu-seconds: 2*10 + 1*15 = 35 over 4 gpus * 20s.
        assert report.gpu_utilization == pytest.approx(35 / 80)
        assert report.jobs_per_hour == pytest.approx(2 / 20 * 3600)
        assert report.per_node_utilization()["a"] == pytest.approx(20 / 40)
        assert report.per_node_jobs() == {"a": 1, "b": 1}

    def test_empty_report_metrics_are_zero(self):
        report = ClusterReport(
            policy="fifo", cluster_name="c", workload_name="w",
            node_gpus={"a": 4}, records=(),
        )
        assert report.makespan == 0.0
        assert report.mean_wait == 0.0
        assert report.gpu_utilization == 0.0
        assert report.jobs_per_hour == 0.0

    def test_wait_and_service_extremes(self):
        report = self.make_report()
        assert report.max_wait == 5.0
        # Service times 10 s and 15 s.
        assert report.mean_service == pytest.approx(12.5)
        empty = replace(report, records=())
        assert empty.max_wait == 0.0
        assert empty.mean_service == 0.0

    def test_record_gpu_seconds_accounting(self):
        plain = JobRecord(
            job_id="j", node="a", gpus=2, strategy="TR", cell="c",
            arrival_time=0.0, start_time=1.0, finish_time=11.0,
        )
        assert plain.effective_gpu_seconds == pytest.approx(20.0)
        assert plain.useful_gpu_seconds == pytest.approx(20.0)
        faulted = replace(plain, gpu_seconds=30.0, wasted_gpu_seconds=12.0)
        assert faulted.effective_gpu_seconds == 30.0
        assert faulted.useful_gpu_seconds == pytest.approx(18.0)
        # Waste beyond the occupied time never yields negative useful work.
        assert replace(plain, wasted_gpu_seconds=50.0).useful_gpu_seconds == 0.0

    def test_record_deadline_verdict(self):
        record = JobRecord(
            job_id="j", node="a", gpus=1, strategy="TR", cell="c",
            arrival_time=0.0, start_time=0.0, finish_time=10.0,
        )
        assert record.met_deadline is None
        assert replace(record, deadline=10.0).met_deadline is True
        assert replace(record, deadline=9.5).met_deadline is False

    def test_format_plain_report(self):
        text = format_cluster_report(self.make_report())
        lines = text.splitlines()
        assert lines[0] == "fifo on test — w"
        assert "  jobs          : 2" in lines
        assert "  throughput    : 360.0 jobs/hour" in lines
        # Plain runs print neither the fault nor the tenant section.
        assert not any("faults" in line or "deadline hits" in line for line in lines)
        node_rows = [line.split() for line in lines if line.split()[:1] in (["a"], ["b"])]
        assert node_rows == [["a", "2", "50.0%", "1"], ["b", "2", "37.5%", "1"]]

    def test_compare_policies_one_row_per_policy(self):
        fifo = self.make_report()
        other = replace(fifo, policy="sjf")
        table = compare_policies({"fifo": fifo, "sjf": other})
        lines = table.splitlines()
        assert lines[0] == "2 jobs on test (w)"
        assert "goodput" not in lines[1]
        assert [line.split()[0] for line in lines[-2:]] == ["fifo", "sjf"]
        assert compare_policies([fifo, other]) == table
        with pytest.raises(ConfigurationError, match="no reports"):
            compare_policies([])

    def test_dict_roundtrip(self):
        report = self.make_report()
        rebuilt = ClusterReport.from_dict(report.to_dict())
        assert rebuilt.to_dict() == report.to_dict()

    def test_record_validation(self):
        with pytest.raises(ConfigurationError):
            JobRecord(
                job_id="j", node="a", gpus=1, strategy="TR", cell="c",
                arrival_time=5.0, start_time=0.0, finish_time=10.0,
            )
        with pytest.raises(ConfigurationError):
            JobRecord(
                job_id="j", node="a", gpus=1, strategy="TR", cell="c",
                arrival_time=0.0, start_time=5.0, finish_time=1.0,
            )

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 95) == 95
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100
        assert percentile([3.0], 50) == 3.0
        with pytest.raises(ConfigurationError):
            percentile([], 50)
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101)


class TestBatchedMemoFills:
    """PR 8: epoch-memo fills are batched per drain instant.

    The event loops collect every placement decided at one instant and
    resolve missing epoch-time cells in a single ``cluster.memo_fill``
    span (one counter bump), instead of one fill per placement event.
    Schedules, memo contents and simulation counts must be unchanged —
    the goldens in ``tests/cluster/golden`` pin the reports byte-for-byte.
    """

    def test_gang_burst_fills_in_one_span(self):
        from repro.obs.tracing import SpanRecorder

        # Twelve identical jobs all arriving at t=0: one drain instant,
        # exactly one memo-fill span covering every distinct cell the
        # placements landed (one per server type on the default fleet).
        jobs = tuple(
            JobSpec(
                job_id=f"burst-{index}", arrival_time=0.0, gpus=2,
                task="nas", dataset="cifar10", batch_size=128,
                strategy="TR", epochs=1, simulated_steps=4,
            )
            for index in range(12)
        )
        simulator = ClusterSimulator(default_cluster(), policy="fifo", session=Session())
        with SpanRecorder() as recorder:
            simulator.run(Workload(name="burst", jobs=jobs))
        fills = [s for s in recorder.spans() if s.name == "cluster.memo_fill"]
        assert len(fills) == 1
        assert fills[0].tags["cells"] == simulator.simulations_run

    def test_warm_memo_produces_no_fill_spans(self):
        from repro.obs.tracing import SpanRecorder

        workload = poisson_workload(8, rate=0.5, seed=3)
        session = Session()
        memo = {}
        ClusterSimulator(
            default_cluster(), policy="fifo", session=session, epoch_time_cache=memo
        ).run(workload)
        with SpanRecorder() as recorder:
            ClusterSimulator(
                default_cluster(), policy="fifo", session=session, epoch_time_cache=memo
            ).run(workload)
        assert [s for s in recorder.spans() if s.name == "cluster.memo_fill"] == []


class TestEpochMemoAudit:
    """PR 5 audit: the epoch-time memo key carries no policy/fault context.

    An epoch time is a property of (cell, strategy, steps) alone — the
    placement policy only decides *where* a gang runs (the server type and
    gang size are already in the cell key), and fault handling scales wall
    time at the event level without ever touching the memoised nominal
    value.  These tests pin that audit with SessionStats: if someone later
    adds context the key must learn about (or pollutes the memo from a
    fault path), the zero-new-runs assertions below break.
    """

    def _workload(self):
        mix = JobMix(
            tasks=("nas",),
            datasets=("cifar10",),
            batch_sizes=(128,),
            gpu_demands=(2, 4),
            strategies=("TR", "TR+DPU+AHD"),
            epochs=(1, 2),
        )
        return poisson_workload(10, rate=0.5, seed=5, mix=mix)

    def test_memo_replay_under_every_policy_adds_zero_runs(self):
        cluster = default_cluster()
        workload = self._workload()
        session = Session()
        memo = {}
        first = {
            name: ClusterSimulator(
                cluster, policy=name, session=session, epoch_time_cache=memo
            ).run(workload)
            for name in ("fifo", "best-fit", "sjf")
        }
        runs_after_first = session.stats.runs
        assert runs_after_first > 0

        second = {
            name: ClusterSimulator(
                cluster, policy=name, session=session, epoch_time_cache=memo
            ).run(workload)
            for name in ("fifo", "best-fit", "sjf")
        }
        # Zero new simulations: the memo key is complete for every policy.
        assert session.stats.runs == runs_after_first
        for name in first:
            assert first[name].to_json() == second[name].to_json()

    def test_each_simulator_builds_one_config_per_distinct_key(self, monkeypatch):
        # Placement passes, shrink restarts and estimates read the memo by
        # JobSpec.epoch_key; an ExperimentConfig is built only the first
        # time a simulator meets a key, whether or not the shared memo
        # already holds its epoch time.
        builds = []
        post_init = ExperimentConfig.__post_init__

        def counting_post_init(config):
            builds.append((config.cell_key(), config.strategy, config.simulated_steps))
            post_init(config)

        monkeypatch.setattr(ExperimentConfig, "__post_init__", counting_post_init)
        cluster, memo, session = default_cluster(), {}, Session()
        workload = poisson_workload(200, rate=0.5, seed=3)
        shrunk = 0
        for name in ("sjf", "fifo", "sjf"):
            builds.clear()
            report = ClusterSimulator(
                cluster,
                policy=name,
                session=session,
                epoch_time_cache=memo,
                faults=FaultModel(preempt_rate=0.002, preempt_gpus=2),
                elastic="shrink",
            ).run(workload)
            assert len(builds) == len(set(builds))
            assert set(builds) <= set(memo)
            shrunk += sum(record.final_gpus < record.gpus for record in report.records)
        assert shrunk  # the shrink path built its smaller gangs' configs too
        assert session.stats.runs == len(memo)

    def test_epoch_and_service_time_are_the_sessions(self):
        cluster = default_cluster()
        memo = {}
        simulator = ClusterSimulator(cluster, session=Session(), epoch_time_cache=memo)
        reference = Session()
        keys = set()
        for spec in self._workload().jobs:
            for node in cluster.nodes:
                if node.num_gpus < spec.gpus:
                    continue
                config = spec.experiment_config(node.server)
                expected = reference.run(config).epoch_time
                assert simulator.epoch_time(spec, node) == expected
                assert simulator.service_time(spec, node) == expected * spec.epochs
                keys.add((config.cell_key(), spec.strategy, spec.simulated_steps))
            first = next(node for node in cluster.nodes if node.num_gpus >= spec.gpus)
            assert simulator.estimate_service_time(spec) == simulator.service_time(spec, first)
        assert set(memo) == keys  # a shared memo keeps its EpochKey keys

    def test_memo_key_distinguishes_server_type_and_gang_size(self):
        cluster = ClusterSpec(
            name="hetero",
            nodes=(
                NodeSpec(name="big", server="a6000", num_gpus=4),
                NodeSpec(name="alt", server="2080ti", num_gpus=4),
            ),
        )
        simulator = ClusterSimulator(cluster, policy="best-fit", session=Session())
        workload = Workload(
            name="two-cells",
            jobs=(job("j0", 0.0, 4), job("j1", 0.0, 4)),
        )
        simulator.run(workload)
        keys = {(cell[2], cell[3]) for cell, _, _ in simulator._epoch_times}
        # Both server types and the gang size appear in the memo keys.
        assert ("a6000", 4) in keys and ("2080ti", 4) in keys

    def test_fault_scaling_never_pollutes_the_nominal_memo(self):
        from repro.cluster.faults import FaultEvent, FaultTrace

        cluster = default_cluster()
        workload = self._workload()

        clean = ClusterSimulator(cluster, policy="fifo", session=Session())
        clean.run(workload)

        trace = FaultTrace(
            name="slow-everything",
            events=tuple(
                FaultEvent(
                    time=1.0 + index,
                    kind="straggler",
                    node=node.name,
                    factor=3.0,
                    duration=1e5,
                )
                for index, node in enumerate(cluster.nodes)
            ),
        )
        faulty = ClusterSimulator(
            cluster, policy="fifo", session=Session(), faults=trace
        )
        faulty.run(workload)

        # Stragglers tripled wall time, but every shared memo entry still
        # holds the identical nominal epoch time.
        shared = set(clean._epoch_times) & set(faulty._epoch_times)
        assert shared
        for key in shared:
            assert clean._epoch_times[key] == faulty._epoch_times[key]
