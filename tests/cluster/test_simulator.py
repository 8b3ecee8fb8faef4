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
from repro.cluster.faults import FaultEvent, FaultTrace
from repro.cluster.scheduler import Placement, register_policy, POLICIES
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
    every running gang for each starved job and node.  Both are now one
    pass over data computed once.
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
        assert counts["estimates"] > 100 * len(distinct)  # SJF asks freely...
        assert counts["configs"] <= len(distinct)  # ...and builds once per key

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

    @pytest.mark.parametrize("policy_name", ["priority", "fair-share", "deadline-aware"])
    def test_preemption_scores_each_gang_and_job_once(self, policy_name, monkeypatch):
        from repro.cluster.simulator import _FleetRun

        roster = (
            TenantSpec("batch", rate=0.4),
            TenantSpec("prod", priority=2, deadline_policy="strict", rate=0.2),
        )
        workload = tenant_workload(roster, 120, seed=5, deadline_slack=300.0)
        policy = POLICIES.get(policy_name)
        urgency, try_preempt = policy.urgency, _FleetRun._try_preempt
        calls = {"urgency": 0, "preempt": 0}
        over_budget = []

        def counting_urgency(job, context):
            calls["urgency"] += 1
            return urgency(job, context)

        def checked_try_preempt(run, t):
            budget = len(run.entries) + len(run._eligible({}))
            before = calls["urgency"]
            calls["preempt"] += 1
            evicted = try_preempt(run, t)
            if calls["urgency"] - before > budget:
                over_budget.append((t, calls["urgency"] - before, budget))
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
