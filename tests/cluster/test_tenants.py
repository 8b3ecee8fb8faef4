"""Multi-tenant fleets: specs, generators, quotas, preemption, SLOs, pricing.

The ``TestPolicyOrdering`` class pins the acceptance criteria of the
multi-tenancy work: on a contended two-tenant fleet, ``fair-share``
must beat ``fifo`` on the Jain fairness index, and ``deadline-aware``
must beat both on the deadline hit rate.
"""

import math

import pytest

from repro.cluster.market import (
    GPU_HOURLY_RATES,
    PRICE_CURVES,
    PriceCurve,
    gpu_cost,
    parse_price_curve,
)
from repro.cluster.faults import FaultEvent, FaultTrace
from repro.cluster.simulator import ClusterSimulator, _FleetRun, run_policy_comparison
from repro.cluster.spec import cluster_from_shorthand
from repro.cluster.workload import (
    JobMix,
    JobSpec,
    TenantSpec,
    Workload,
    parse_tenant_shorthand,
    tenant_workload,
)
from repro.errors import ConfigurationError


class TestTenantSpec:
    def test_roundtrip_preserves_every_field(self):
        spec = TenantSpec(
            "prod",
            priority=2,
            quota_gpus=8,
            budget_per_gpu_hour=1.5,
            deadline_policy="strict",
            rate=0.05,
            deadline_slack=120.0,
        )
        assert TenantSpec.from_dict(spec.to_dict()) == spec

    def test_defaults_serialise_sparsely(self):
        payload = TenantSpec("batch").to_dict()
        assert payload == {"name": "batch", "priority": 0}

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name=""),
            dict(name="a b"),
            dict(name="x", quota_gpus=0),
            dict(name="x", budget_per_gpu_hour=0.0),
            dict(name="x", deadline_policy="maybe"),
            dict(name="x", rate=-1.0),
            dict(name="x", deadline_slack=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            TenantSpec(**kwargs)

    def test_shorthand_parses_keys_and_defaults(self):
        prod, batch = parse_tenant_shorthand(
            "prod:priority=2,quota=8,deadline=strict,slack=60;batch:rate=0.2"
        )
        assert prod == TenantSpec(
            "prod", priority=2, quota_gpus=8, deadline_policy="strict",
            deadline_slack=60.0,
        )
        assert batch == TenantSpec("batch", rate=0.2)

    def test_shorthand_rejects_unknown_keys_and_empty_specs(self):
        with pytest.raises(ConfigurationError, match="known keys"):
            parse_tenant_shorthand("prod:color=blue")
        with pytest.raises(ConfigurationError, match="names no tenants"):
            parse_tenant_shorthand(" ; ")


class TestTenantWorkload:
    TENANTS = (
        TenantSpec("prod", priority=2, deadline_policy="strict", rate=0.1),
        TenantSpec("batch", rate=0.3),
    )

    def test_seeded_and_deterministic(self):
        first = tenant_workload(self.TENANTS, 12, seed=5)
        second = tenant_workload(self.TENANTS, 12, seed=5)
        assert first == second
        assert first != tenant_workload(self.TENANTS, 12, seed=6)

    def test_jobs_split_by_rate_and_tagged(self):
        workload = tenant_workload(self.TENANTS, 12, seed=1)
        by_tenant = {
            name: [job for job in workload.jobs if job.tenant == name]
            for name in ("prod", "batch")
        }
        # rates 0.1 vs 0.3 split 12 jobs 3/9 by largest remainder.
        assert len(by_tenant["prod"]) == 3
        assert len(by_tenant["batch"]) == 9
        assert workload.tenants == self.TENANTS

    def test_deadlines_only_on_deadline_tenants(self):
        workload = tenant_workload(self.TENANTS, 10, seed=0, deadline_slack=45.0)
        for job in workload.jobs:
            if job.tenant == "prod":
                assert job.deadline == pytest.approx(job.arrival_time + 45.0)
            else:
                assert job.deadline is None

    @pytest.mark.parametrize("slack", [0.0, -1.0, float("nan")])
    def test_non_positive_slack_argument_is_rejected(self, slack):
        # Rejected up front, with TenantSpec's wording, rather than as an
        # invalid deadline on whichever job a deadline tenant draws first.
        with pytest.raises(ConfigurationError, match="deadline_slack must be finite and > 0"):
            tenant_workload(self.TENANTS, 4, seed=0, deadline_slack=slack)

    def test_tenant_slack_overrides_argument(self):
        tenants = (TenantSpec("p", deadline_policy="soft", deadline_slack=30.0),)
        workload = tenant_workload(tenants, 4, seed=0, deadline_slack=999.0)
        for job in workload.jobs:
            assert job.deadline == pytest.approx(job.arrival_time + 30.0)

    def test_adding_a_tenant_never_perturbs_another_stream(self):
        # Per-tenant RNG streams: batch's jobs are identical whether or
        # not prod exists alongside it (counts held fixed via rates).
        solo = tenant_workload((TenantSpec("batch", rate=0.3),), 9, seed=5)
        pair = tenant_workload(self.TENANTS, 12, seed=5)
        solo_jobs = [job for job in solo.jobs]
        pair_jobs = [job for job in pair.jobs if job.tenant == "batch"]
        assert solo_jobs == pair_jobs

    def test_diurnal_variant_is_deterministic(self):
        first = tenant_workload(self.TENANTS, 10, seed=2, diurnal=True)
        assert first == tenant_workload(self.TENANTS, 10, seed=2, diurnal=True)

    def test_undeclared_tenant_tag_rejected_by_workload(self):
        job = JobSpec(
            job_id="j0", arrival_time=0.0, gpus=1, batch_size=128,
            strategy="TR", simulated_steps=4, tenant="ghost",
        )
        with pytest.raises(ConfigurationError, match="undeclared tenant"):
            Workload(name="bad", jobs=(job,), tenants=(TenantSpec("prod"),))


def _overlap_concurrency(records, tenant):
    """Peak concurrently-held GPUs for one tenant, from finished records."""
    events = []
    for record in records:
        if record.tenant != tenant:
            continue
        events.append((record.start_time, record.gpus))
        events.append((record.finish_time, -record.gpus))
    events.sort()
    peak = held = 0
    for _, delta in events:
        held += delta
        peak = max(peak, held)
    return peak


class TestQuotaAndPreemption:
    def test_quota_caps_concurrent_gpus(self):
        cluster = cluster_from_shorthand("a6000:8")
        tenants = (TenantSpec("capped", quota_gpus=2),)
        jobs = tuple(
            JobSpec(
                job_id=f"j{i}", arrival_time=0.0, gpus=1, batch_size=128,
                strategy="TR", simulated_steps=4, tenant="capped",
            )
            for i in range(6)
        )
        workload = Workload(name="quota", jobs=jobs, tenants=tenants)
        report = ClusterSimulator(cluster, policy="fifo").run(workload)
        assert len(report.records) == 6
        assert _overlap_concurrency(report.records, "capped") <= 2

    def test_priority_policy_preempts_lower_priority_gangs(self):
        cluster = cluster_from_shorthand("a6000:4")
        tenants = (
            TenantSpec("batch", priority=0),
            TenantSpec("prod", priority=5),
        )
        jobs = (
            JobSpec(
                job_id="batch-0", arrival_time=0.0, gpus=4, batch_size=256,
                strategy="TR", simulated_steps=64, tenant="batch",
            ),
            JobSpec(
                job_id="prod-0", arrival_time=10.0, gpus=4, batch_size=128,
                strategy="TR", simulated_steps=4, tenant="prod",
            ),
        )
        workload = Workload(name="preempt", jobs=jobs, tenants=tenants)
        report = ClusterSimulator(cluster, policy="priority").run(workload)
        by_id = {record.job_id: record for record in report.records}
        # prod evicted batch rather than queueing behind it...
        assert report.interruptions >= 1
        assert by_id["prod-0"].wait_time == pytest.approx(0.0)
        # ...and batch still completed after restarting.
        assert by_id["batch-0"].finish_time > by_id["prod-0"].finish_time

    def test_fifo_never_preempts_in_the_same_scenario(self):
        cluster = cluster_from_shorthand("a6000:4")
        tenants = (TenantSpec("batch"), TenantSpec("prod", priority=5))
        jobs = (
            JobSpec(
                job_id="batch-0", arrival_time=0.0, gpus=4, batch_size=256,
                strategy="TR", simulated_steps=64, tenant="batch",
            ),
            JobSpec(
                job_id="prod-0", arrival_time=10.0, gpus=4, batch_size=128,
                strategy="TR", simulated_steps=4, tenant="prod",
            ),
        )
        workload = Workload(name="no-preempt", jobs=jobs, tenants=tenants)
        report = ClusterSimulator(cluster, policy="fifo").run(workload)
        assert report.interruptions == 0
        by_id = {record.job_id: record for record in report.records}
        assert by_id["prod-0"].wait_time > 0.0


class TestFairShareDeficit:
    """The deficit integrates the live fleet capacity from t=0.

    Before this was fixed, a deficit charged the *current* capacity for
    the whole elapsed time, so a crash at t=100 also erased the capacity
    every tenant was entitled to before it.
    """

    @staticmethod
    def _deficits_at(t, events, tenants):
        cluster = cluster_from_shorthand("a6000:4,2080ti:4")
        job = JobSpec(job_id="late", arrival_time=1e6, gpus=1, tenant=tenants[0].name)
        workload = Workload(name="deficit", jobs=(job,), tenants=tenants)
        run = _FleetRun(
            ClusterSimulator(cluster, policy="fair-share"),
            workload,
            FaultTrace(name="hand-built", events=tuple(events)),
        )
        while run.timeline and run.timeline[0][0] <= t:
            when, _, action, event, token = run.timeline.popleft()
            run.fault(when, action, event, token)
        return run._context(t).deficits

    def test_crash_keeps_the_capacity_before_it(self):
        crash = FaultEvent(time=100.0, kind="crash", node="2080ti-0")
        deficits = self._deficits_at(200.0, [crash], (TenantSpec("a"), TenantSpec("b")))
        # 8 GPUs for 100 s, then 4 GPUs for 100 s, split evenly.
        assert deficits == {"a": 600.0, "b": 600.0}

    def test_preemption_window_is_integrated_with_quota_weights(self):
        window = FaultEvent(time=50.0, kind="preempt", node="a6000-0", gpus=2, duration=100.0)
        tenants = (TenantSpec("a"), TenantSpec("b", quota_gpus=3))
        deficits = self._deficits_at(200.0, [window], tenants)
        # 8 GPUs over [0, 50], 6 over [50, 150], 8 over [150, 200]: 1400
        # GPU-seconds, weighted 1 : 3.
        assert deficits == {"a": pytest.approx(350.0), "b": pytest.approx(1050.0)}

    def test_without_faults_the_deficit_is_capacity_times_time(self):
        deficits = self._deficits_at(200.0, [], (TenantSpec("a"), TenantSpec("b")))
        assert deficits == {"a": 8 * 1.0 / 2.0 * 200.0, "b": 8 * 1.0 / 2.0 * 200.0}


def _contended_fleet():
    """The frozen acceptance scenario: a heavy tenant whose 3-GPU gangs
    strand one GPU per 4-GPU node, and a light deadline tenant whose
    1-GPU jobs can fill the stranded capacity — if the policy lets them.
    """
    cluster = cluster_from_shorthand("a6000:4,2080ti:4")
    heavy_mix = JobMix(
        tasks=("nas",), batch_sizes=(256,), gpu_demands=(3,),
        strategies=("TR+DPU+AHD",), epochs=(1,),
    )
    light_mix = JobMix(
        tasks=("nas",), batch_sizes=(128,), gpu_demands=(1,),
        strategies=("TR",), epochs=(1,),
    )
    tenants = (
        TenantSpec("heavy", priority=0, rate=0.04),
        TenantSpec(
            "light", priority=2, deadline_policy="strict", rate=0.25,
            deadline_slack=60.0,
        ),
    )
    workload = tenant_workload(
        tenants, 48, seed=11, mixes={"heavy": heavy_mix, "light": light_mix},
    )
    return cluster, workload


class TestPolicyOrdering:
    """Acceptance: the new policies must actually buy their SLOs."""

    @pytest.fixture(scope="class")
    def reports(self):
        cluster, workload = _contended_fleet()
        return {
            policy: ClusterSimulator(cluster, policy=policy).run(workload)
            for policy in ("fifo", "fair-share", "deadline-aware")
        }

    def test_fair_share_beats_fifo_on_fairness(self, reports):
        assert reports["fair-share"].fairness_index > reports["fifo"].fairness_index

    def test_deadline_aware_beats_both_on_deadline_hit_rate(self, reports):
        edf = reports["deadline-aware"].deadline_hit_rate
        assert edf > reports["fifo"].deadline_hit_rate
        assert edf > reports["fair-share"].deadline_hit_rate

    def test_every_policy_completes_the_whole_workload(self, reports):
        for report in reports.values():
            assert report.num_jobs == 48
            assert not report.killed

    def test_run_policy_comparison_covers_new_policies(self):
        cluster, workload = _contended_fleet()
        reports = run_policy_comparison(cluster, workload, policies=("fifo",))
        assert set(reports) == {"fifo"}


class TestDeterminism:
    def test_tenant_runs_are_byte_identical(self):
        cluster, workload = _contended_fleet()
        curve = PRICE_CURVES["diurnal"]
        first = ClusterSimulator(
            cluster, policy="fair-share", price_curve=curve
        ).run(workload)
        second = ClusterSimulator(
            cluster, policy="fair-share", price_curve=curve
        ).run(workload)
        assert first.to_dict() == second.to_dict()


class TestPriceCurves:
    def test_flat_curve_matches_flat_rate(self):
        curve = PRICE_CURVES["flat"]
        assert gpu_cost("a6000", 2, 0.0, 3600.0, curve) == pytest.approx(
            gpu_cost("a6000", 2, 0.0, 3600.0, None)
        )
        assert gpu_cost("a6000", 1, 0.0, 3600.0) == pytest.approx(
            GPU_HOURLY_RATES["a6000"]
        )

    def test_step_integral_weights_each_segment(self):
        curve = PriceCurve("step", ((0.0, 1.0), (100.0, 2.0)))
        assert curve.integral(0.0, 200.0) == pytest.approx(100.0 + 200.0)

    def test_periodic_curve_wraps(self):
        curve = PriceCurve("cycle", ((0.0, 1.0), (50.0, 3.0)), period=100.0)
        # One full period costs 50*1 + 50*3 = 200; two periods double it.
        assert curve.integral(0.0, 100.0) == pytest.approx(200.0)
        assert curve.integral(0.0, 200.0) == pytest.approx(400.0)
        # A span straddling the wrap point integrates both sides.
        assert curve.integral(75.0, 125.0) == pytest.approx(3.0 * 25.0 + 1.0 * 25.0)

    def test_parse_accepts_presets_and_shorthand(self):
        assert parse_price_curve("spot") is PRICE_CURVES["spot"]
        assert parse_price_curve(None) is None
        assert parse_price_curve("  ") is None
        custom = parse_price_curve("0:0.8,600:1.5@3600")
        assert custom.points == ((0.0, 0.8), (600.0, 1.5))
        assert custom.period == 3600.0
        with pytest.raises(ConfigurationError, match="bad price curve"):
            parse_price_curve("nonsense")

    @pytest.mark.parametrize(
        "points,period",
        [
            ((), None),
            (((5.0, 1.0),), None),  # must start at 0
            (((0.0, 1.0), (0.0, 2.0)), None),  # strictly increasing
            (((0.0, 0.0),), None),  # positive multipliers
            (((0.0, 1.0), (50.0, 2.0)), 40.0),  # period > last point
        ],
    )
    def test_validation(self, points, period):
        with pytest.raises(ConfigurationError):
            PriceCurve("bad", points, period=period)

    def test_priced_run_charges_every_job(self):
        cluster, workload = _contended_fleet()
        report = ClusterSimulator(
            cluster, policy="fifo", price_curve=PRICE_CURVES["spot"]
        ).run(workload)
        assert all(record.cost_usd is not None for record in report.records)
        assert report.total_cost_usd > 0.0
        assert report.cost_per_job == pytest.approx(
            report.total_cost_usd / report.num_jobs
        )
        assert math.isfinite(report.cost_per_job)

    def test_uncurved_tenant_run_charges_flat_rates(self):
        # No price curve: tenant runs still account cost at the flat
        # per-server rates, exactly as if the "flat" preset were passed.
        cluster, workload = _contended_fleet()
        uncurved = ClusterSimulator(cluster, policy="fifo").run(workload)
        flat = ClusterSimulator(
            cluster, policy="fifo", price_curve=PRICE_CURVES["flat"]
        ).run(workload)
        assert uncurved.total_cost_usd > 0.0
        assert uncurved.total_cost_usd == pytest.approx(flat.total_cost_usd)

    def test_single_tenant_fast_path_reports_no_cost(self):
        from repro.cluster.workload import poisson_workload

        cluster = cluster_from_shorthand("a6000:4")
        workload = poisson_workload(num_jobs=4, rate=0.1, seed=0)
        report = ClusterSimulator(cluster, policy="fifo").run(workload)
        assert all(record.cost_usd is None for record in report.records)
        assert report.total_cost_usd == 0.0


class TestSloReporting:
    def test_per_tenant_breakdown_covers_declared_tenants(self):
        cluster, workload = _contended_fleet()
        report = ClusterSimulator(cluster, policy="fair-share").run(workload)
        breakdown = report.per_tenant()
        assert set(breakdown) == {"heavy", "light"}
        assert breakdown["heavy"]["jobs"] + breakdown["light"]["jobs"] == 48
        # Only the light tenant carries deadlines; heavy's rate is vacuous.
        assert breakdown["heavy"]["deadline_hit_rate"] == 1.0
        assert 0.0 <= breakdown["light"]["deadline_hit_rate"] <= 1.0
        assert breakdown["light"]["mean_wait_s"] >= 0.0

    def test_report_dict_carries_tenants_and_slo_metrics(self):
        cluster, workload = _contended_fleet()
        report = ClusterSimulator(cluster, policy="fifo").run(workload)
        payload = report.to_dict()
        assert [spec["name"] for spec in payload["tenants"]] == ["heavy", "light"]
        assert 0.0 <= payload["fairness_index"] <= 1.0
        assert 0.0 <= payload["deadline_hit_rate"] <= 1.0
        assert set(payload["per_tenant"]) == {"heavy", "light"}
        report_roundtrip = type(report).from_dict(payload)
        assert report_roundtrip.to_dict() == payload
