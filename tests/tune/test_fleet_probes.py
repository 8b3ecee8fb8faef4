"""The evaluator's fleet probes: the SLO probe and the probes' store keys.

The SLO probe is checked against a :class:`ClusterSimulator` built by hand
on the same roster and price curve, and against the store (a replay runs
nothing; any change of scenario is a new record).  The key payloads of
every evaluator record kind are pinned as literal canonical JSON: a change
there re-addresses stored records, so existing stores would stop
hydrating.
"""

from dataclasses import replace

import pytest

from repro.cluster.market import parse_price_curve
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.spec import cluster_from_shorthand
from repro.cluster.workload import JobMix, parse_tenant_shorthand, tenant_workload
from repro.core.session import Session
from repro.store.keys import canonical_json
from repro.store.store import ExperimentStore
from repro.tune.evaluator import TuneEvaluator
from repro.tune.space import TunePoint, TuneSpace
from repro.tune.tuner import tune

ROSTER = "heavy:rate=0.3;light:priority=2,deadline=strict,rate=0.3"
CURVE = "0:0.5,600:1.5@1200"
SLACK = 90.0
JOBS = 6
STEPS = 4
FLEET = cluster_from_shorthand("a6000:4")
POINT = TunePoint(
    task="nas",
    dataset="cifar10",
    server="a6000",
    num_gpus=2,
    batch_size=128,
    strategy="DP",
    policy="fifo",
    cluster=FLEET,
)


def slo_evaluator(session=None, **overrides):
    settings = dict(
        simulated_steps=STEPS,
        throughput_jobs=JOBS,
        tenants=ROSTER,
        price_curve=CURVE,
        slo_deadline_slack=SLACK,
    )
    settings.update(overrides)
    return TuneEvaluator(session, **settings)


class TestSloProbe:
    def test_matches_a_hand_built_fleet(self):
        evaluator = slo_evaluator()
        tenants = parse_tenant_shorthand(ROSTER)
        mix = JobMix(
            tasks=("nas",),
            batch_sizes=(128,),
            gpu_demands=(2,),
            strategies=("DP",),
            epochs=(1,),
        )
        workload = tenant_workload(
            tenants,
            JOBS,
            seed=0,
            mixes={spec.name: mix for spec in tenants},
            deadline_slack=SLACK,
        )
        workload = replace(
            workload,
            jobs=tuple(replace(job, simulated_steps=STEPS) for job in workload.jobs),
        )
        report = ClusterSimulator(
            FLEET, policy="fifo", price_curve=parse_price_curve(CURVE)
        ).run(workload)
        assert evaluator.slo(POINT) == (report.deadline_hit_rate, report.cost_per_job)
        assert evaluator.stats.slo_probes == 1

    def test_repeated_probe_is_a_memo_hit(self):
        evaluator = slo_evaluator()
        first = evaluator.slo(POINT)
        runs = evaluator.session.stats.runs
        assert evaluator.slo(POINT) == first
        assert evaluator.stats.slo_probes == 1
        assert evaluator.stats.slo_probe_hits == 1
        assert evaluator.session.stats.runs == runs

    def test_store_backed_rerun_of_a_deadline_tune_runs_nothing(self, tmp_path):
        store = str(tmp_path / "store")
        space = TuneSpace(
            strategies=("DP", "TR+DPU+AHD"),
            batch_sizes=(128,),
            gpu_counts=(2,),
            policies=("fifo", "deadline-aware"),
            clusters=(FLEET,),
        )

        def run(session):
            return tune(
                space,
                objective="deadline_hit_rate",
                driver="exhaustive",
                budget=4,
                simulated_steps=STEPS,
                session=session,
                tenants=ROSTER,
                price_curve=CURVE,
                slo_deadline_slack=SLACK,
            )

        cold_session = Session(store=store)
        cold = run(cold_session)
        assert cold_session.stats.runs > 0
        assert cold.evaluator_stats["slo_probes"] > 0

        warm_session = Session(store=store)
        warm = run(warm_session)
        assert warm_session.stats.runs == 0
        assert warm.evaluator_stats["slo_probes"] == 0
        assert warm.evaluator_stats["store_hydrations"] > 0
        assert warm.best.point == cold.best.point
        assert warm.best.deadline_hit_rate == cold.best.deadline_hit_rate
        assert warm.best.cost_per_job == cold.best.cost_per_job

    @pytest.mark.parametrize(
        "change",
        [
            {"tenants": "heavy:rate=0.3;light:priority=1,deadline=strict,rate=0.3"},
            {"price_curve": "spot"},
            {"slo_deadline_slack": 120.0},
        ],
        ids=["roster", "price_curve", "slack"],
    )
    def test_a_changed_scenario_is_a_new_record(self, tmp_path, change):
        store = str(tmp_path / "store")
        slo_evaluator(Session(store=store)).slo(POINT)

        same = slo_evaluator(Session(store=store))
        same.slo(POINT)
        assert same.stats.slo_probes == 0

        changed = slo_evaluator(Session(store=store), **change)
        changed.slo(POINT)
        assert changed.stats.slo_probes == 1


class TestProbeKeyPayloads:
    """Literal key payloads of every evaluator record for one point."""

    @pytest.fixture
    def puts(self, tmp_path, monkeypatch):
        recorded = []
        original = ExperimentStore.put

        def recording_put(store, kind, key_payload, value):
            recorded.append((kind, canonical_json(key_payload)))
            return original(store, kind, key_payload, value)

        monkeypatch.setattr(ExperimentStore, "put", recording_put)
        evaluator = slo_evaluator(
            Session(store=str(tmp_path / "store")),
            throughput_jobs=2,
            faults="crash:0.001",
            elastic="shrink",
            fault_seed=3,
        )
        evaluator.estimate(POINT)
        evaluator.throughput(POINT)
        evaluator.goodput(POINT)
        evaluator.slo(POINT)
        return {kind: payload for kind, payload in recorded if kind != "run"}

    def test_payloads_are_pinned(self, puts):
        assert puts == {
            "estimate": (
                '{"batch_size":128,"dataset":"cifar10","num_gpus":2,'
                '"server":"a6000","strategy":"DP","task":"nas"}'
            ),
            "throughput": (
                '{"batch_size":128,"cluster":{"name":"cluster","nodes":'
                '[{"name":"a6000-0","num_gpus":4,"server":"a6000"}]},'
                '"dataset":"cifar10","num_gpus":2,"policy":"fifo",'
                '"server":"a6000","simulated_steps":4,"strategy":"DP",'
                '"task":"nas","throughput_jobs":2}'
            ),
            "goodput": (
                '{"batch_size":128,"cluster":{"name":"cluster","nodes":'
                '[{"name":"a6000-0","num_gpus":4,"server":"a6000"}]},'
                '"dataset":"cifar10","elastic":"shrink","fault_seed":3,'
                '"faults":{"model":{"arrival":"poisson","crash_gpus":null,'
                '"crash_rate":0.001,"horizon_slack":3600.0,'
                '"name":"crash:0.001","preempt_duration":120.0,'
                '"preempt_gpus":null,"preempt_rate":0.0,'
                '"straggler_duration":180.0,"straggler_factor":2.0,'
                '"straggler_rate":0.0,"weibull_shape":0.7}},"num_gpus":2,'
                '"policy":"fifo","recovery":{"checkpoint_interval":300.0,'
                '"migration_overhead":20.0,"repartition_overhead":10.0,'
                '"restart_overhead":30.0},"server":"a6000",'
                '"simulated_steps":4,"strategy":"DP","task":"nas",'
                '"throughput_jobs":2}'
            ),
            "slo": (
                '{"batch_size":128,"cluster":{"name":"cluster","nodes":'
                '[{"name":"a6000-0","num_gpus":4,"server":"a6000"}]},'
                '"dataset":"cifar10","deadline_slack":90.0,"num_gpus":2,'
                '"policy":"fifo","price_curve":{"name":"0:0.5,600:1.5@1200",'
                '"period":1200.0,"points":[[0.0,0.5],[600.0,1.5]]},'
                '"server":"a6000","simulated_steps":4,"strategy":"DP",'
                '"task":"nas","tenants":[{"name":"heavy","priority":0,'
                '"rate":0.3},{"deadline_policy":"strict","name":"light",'
                '"priority":2,"rate":0.3}],"throughput_jobs":2}'
            ),
        }
