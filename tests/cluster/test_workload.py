"""Tests for job specs, workload generators and JSON trace replay."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.workload import (
    DEFAULT_MIX,
    JobMix,
    JobSpec,
    TenantSpec,
    Workload,
    arrival_process,
    bursty_workload,
    diurnal_workload,
    poisson_workload,
    tenant_workload,
)
from repro.core.config import VALID_DATASETS, VALID_SERVERS, VALID_TASKS
from repro.errors import ConfigurationError
from repro.parallel.executor import MAX_SIMULATED_STEPS
from repro.parallel.registry import REGISTRY


def job(job_id="job-0", arrival=0.0, **overrides):
    defaults = dict(job_id=job_id, arrival_time=arrival, gpus=2)
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestJobSpec:
    def test_experiment_config_binds_server_at_placement_time(self):
        spec = job(gpus=2, batch_size=128, strategy="TR")
        config = spec.experiment_config("2080ti")
        assert config.server == "2080ti"
        assert config.num_gpus == 2
        assert config.batch_size == 128
        assert config.strategy == "TR"
        assert config.simulated_steps == spec.simulated_steps

    @settings(max_examples=200, deadline=None)
    @given(
        task=st.sampled_from(VALID_TASKS),
        dataset=st.sampled_from(VALID_DATASETS),
        server=st.sampled_from(VALID_SERVERS),
        gpus=st.integers(1, 16),
        batch_size=st.sampled_from([16, 32, 64, 128, 256, 512]),
        strategy=st.sampled_from(REGISTRY.names()),
        steps=st.integers(4, 40),
        epochs=st.integers(1, 5),
    )
    def test_epoch_key_is_the_configs_memo_key(
        self, task, dataset, server, gpus, batch_size, strategy, steps, epochs
    ):
        # The fleet memo is read through epoch_key without building the
        # config; it must name the same entry the config would.
        spec = JobSpec(
            job_id="j",
            arrival_time=0.0,
            gpus=gpus,
            task=task,
            dataset=dataset,
            batch_size=max(batch_size, gpus),
            strategy=strategy,
            epochs=epochs,
            simulated_steps=steps,
        )
        config = spec.experiment_config(server)
        assert spec.epoch_key(server) == (config.cell_key(), spec.strategy, spec.simulated_steps)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            job(job_id="")
        with pytest.raises(ConfigurationError):
            job(arrival=-1.0)
        with pytest.raises(ConfigurationError):
            job(gpus=0)
        with pytest.raises(ConfigurationError):
            job(epochs=0)
        with pytest.raises(ConfigurationError):
            job(task="detection")
        with pytest.raises(ConfigurationError):
            job(strategy="FSDP")
        with pytest.raises(ConfigurationError):
            job(gpus=4, batch_size=2)
        with pytest.raises(ConfigurationError, match="simulated_steps"):
            job(simulated_steps=2)
        with pytest.raises(ConfigurationError, match="MAX_SIMULATED_STEPS"):
            job(simulated_steps=MAX_SIMULATED_STEPS + 1)

    def test_dict_roundtrip(self):
        spec = job(task="compression", epochs=3, simulated_steps=8)
        assert JobSpec.from_dict(spec.to_dict()) == spec


class TestGenerators:
    def test_poisson_is_seed_deterministic(self):
        first = poisson_workload(50, rate=0.1, seed=7)
        second = poisson_workload(50, rate=0.1, seed=7)
        other = poisson_workload(50, rate=0.1, seed=8)
        assert first.jobs == second.jobs
        assert first.jobs != other.jobs

    def test_poisson_arrivals_sorted_and_ids_unique(self):
        workload = poisson_workload(100, rate=0.5, seed=0)
        arrivals = [j.arrival_time for j in workload]
        assert arrivals == sorted(arrivals)
        assert len({j.job_id for j in workload}) == 100

    def test_bursty_shares_arrival_instants(self):
        workload = bursty_workload(40, burst_size=10, burst_gap=60.0, seed=3)
        arrivals = [j.arrival_time for j in workload]
        # 40 jobs in bursts of 10 -> exactly 4 distinct arrival instants.
        assert len(set(arrivals)) == 4

    def test_mix_respected(self):
        mix = JobMix(
            tasks=("compression",),
            datasets=("cifar10",),
            batch_sizes=(64,),
            gpu_demands=(1,),
            strategies=("DP",),
            epochs=(2,),
        )
        workload = poisson_workload(10, rate=1.0, seed=0, mix=mix)
        for spec in workload:
            assert spec.task == "compression"
            assert spec.batch_size == 64
            assert spec.gpus == 1
            assert spec.strategy == "DP"
            assert spec.epochs == 2

    def test_empty_mix_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            JobMix(tasks=())

    def test_arrival_process_dispatch(self):
        assert len(arrival_process("poisson", 5, rate=1.0)) == 5
        assert len(arrival_process("bursty", 5, burst_size=2)) == 5
        with pytest.raises(ConfigurationError):
            arrival_process("adversarial", 5)

    def test_generator_argument_validation(self):
        with pytest.raises(ConfigurationError):
            poisson_workload(0, rate=1.0)
        with pytest.raises(ConfigurationError):
            poisson_workload(5, rate=0.0)
        with pytest.raises(ConfigurationError):
            bursty_workload(5, burst_size=0)



NON_FINITE = [math.nan, math.inf, -math.inf]
TENANTS = (TenantSpec("a", deadline_policy="strict"),)


class TestNonFiniteInputs:
    """NaN slips past a bare ``<= 0`` guard and used to hang the fleet loop."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: poisson_workload(5, rate=v),
            lambda v: bursty_workload(5, burst_gap=v),
            lambda v: diurnal_workload(5, base_rate=v),
            lambda v: diurnal_workload(5, peak_rate=v),
            lambda v: diurnal_workload(5, period=v),
            lambda v: arrival_process("diurnal", 5, rate=v),
            lambda v: tenant_workload(TENANTS, 5, rate=v),
            lambda v: tenant_workload(TENANTS, 5, deadline_slack=v),
            lambda v: TenantSpec("a", rate=v),
            lambda v: TenantSpec("a", deadline_slack=v),
            lambda v: TenantSpec("a", budget_per_gpu_hour=v),
            lambda v: job(arrival=v),
            lambda v: job(deadline=v),
        ],
        ids=[
            "poisson-rate",
            "bursty-gap",
            "diurnal-base",
            "diurnal-peak",
            "diurnal-period",
            "arrival-diurnal-rate",
            "tenant-rate",
            "tenant-slack",
            "spec-rate",
            "spec-slack",
            "spec-budget",
            "job-arrival",
            "job-deadline",
        ],
    )
    def test_rejected(self, build, value):
        with pytest.raises(ConfigurationError, match="finite"):
            build(value)


class TestWorkload:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            Workload(name="w", jobs=(job("a"), job("a")))
        with pytest.raises(ConfigurationError, match="sorted"):
            Workload(name="w", jobs=(job("a", arrival=5.0), job("b", arrival=1.0)))

    def test_json_roundtrip_and_replay(self, tmp_path):
        workload = poisson_workload(20, rate=0.1, seed=5, mix=DEFAULT_MIX)
        path = workload.save(tmp_path / "trace.json")
        replayed = Workload.load(path)
        assert replayed == workload
        payload = json.loads(workload.to_json())
        assert payload["name"] == workload.name
        assert len(payload["jobs"]) == 20

    def test_gang_and_tenant_queries_without_declared_tenants(self):
        workload = Workload(
            name="w",
            jobs=(
                job("a", arrival=0.0, gpus=2, tenant="research"),
                job("b", arrival=1.0, gpus=4, tenant="prod"),
                job("c", arrival=2.0, gpus=1, tenant="prod"),
            ),
        )
        assert workload.max_gpu_demand == 4
        assert workload.tenant_names == ("prod", "research")
        assert workload.tenant_map() == {}
        assert workload.describe() == "w: 3 jobs over 2.0s, max gang 4 GPUs"
        assert Workload(name="empty", jobs=()).max_gpu_demand == 0

    def test_declared_tenants_name_and_map_in_declaration_order(self):
        prod = TenantSpec("prod", priority=2, deadline_policy="strict")
        batch = TenantSpec("batch")
        workload = Workload(
            name="w",
            jobs=(job("a", tenant="prod"), job("b", arrival=1.0, tenant="batch")),
            tenants=(prod, batch),
        )
        assert workload.tenant_names == ("prod", "batch")
        assert workload.tenant_map() == {"prod": prod, "batch": batch}
        assert prod.has_deadlines and not batch.has_deadlines

    def test_from_dict_sorts_unordered_traces(self):
        payload = {
            "name": "hand-written",
            "jobs": [
                job("late", arrival=9.0).to_dict(),
                job("early", arrival=1.0).to_dict(),
            ],
        }
        workload = Workload.from_dict(payload)
        assert [j.job_id for j in workload] == ["early", "late"]

    def test_duration_is_max_arrival_not_last_job(self):
        # Regression: duration used to read jobs[-1].arrival_time, which is
        # only the latest arrival because the constructor enforces sorted
        # order — duration must be defined as the max either way.
        workload = Workload(
            name="w", jobs=(job("a", arrival=1.0), job("b", arrival=7.5))
        )
        assert workload.duration == 7.5
        assert Workload(name="empty", jobs=()).duration == 0.0

    def test_unsorted_trace_replays_through_the_simulator(self, tmp_path):
        # Regression: an unsorted hand-written JSON trace must load (sorted)
        # and replay; the event loop assumes arrival order, so an unsorted
        # workload would mis-schedule every job after the inversion.
        from repro.cluster.simulator import ClusterSimulator
        from repro.cluster.spec import cluster_from_shorthand

        payload = {
            "name": "unsorted-trace",
            "jobs": [
                job("late", arrival=40.0).to_dict(),
                job("early", arrival=0.0).to_dict(),
                job("middle", arrival=20.0).to_dict(),
            ],
        }
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        workload = Workload.load(path)
        assert [j.job_id for j in workload] == ["early", "middle", "late"]
        assert workload.duration == 40.0
        report = ClusterSimulator(
            cluster_from_shorthand("a6000:4"), policy="fifo"
        ).run(workload)
        assert report.num_jobs == 3
        by_id = {record.job_id: record for record in report.records}
        # Every job starts no earlier than it arrived — the tell for a
        # replay that trusted the on-disk order.
        for record in report.records:
            assert record.start_time >= record.arrival_time
        assert by_id["early"].start_time == pytest.approx(0.0)
