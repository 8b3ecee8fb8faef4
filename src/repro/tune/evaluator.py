"""The incremental evaluator: analytic estimates and memoised simulations.

Covered by ``docs/TUNING.md`` (fidelity model) and ``docs/API.md``.

A :class:`TuneEvaluator` wraps one :class:`~repro.core.session.Session` and
offers three fidelities, each cheaper than the last thanks to two layers of
reuse:

* :meth:`estimate` — an *analytic* epoch-time estimate that never runs the
  discrete-event simulator.  Pipeline plans are scored with the profile-backed
  :class:`~repro.parallel.estimator.StageTimeEstimator` (max stage time, as in
  the paper's AHD search); layerwise and data-parallel plans with the same
  cost-model sums the executor uses for task durations.  Profiles come from
  the session cache, so one profile serves every strategy of a cell.
* :meth:`measure` — a full discrete-event simulation via ``Session.run``,
  memoised by ``(cell, strategy, steps)`` so refinement rounds only
  re-simulate changed cells.
* :meth:`throughput` — a fleet probe for ``jobs_per_hour`` objectives: a
  batch of identical jobs gang-scheduled by a
  :class:`~repro.cluster.simulator.ClusterSimulator` whose epoch-time memo is
  shared across *all* probes of a search, so policies replay the fleet
  without new discrete-event simulations.  Two sibling probes share its
  path, memo and store keying (:func:`repro.store.keys.probe_key`):
  :meth:`goodput` (fault-injected fleets) and :meth:`slo` (contended
  multi-tenant fleets with deadlines and price curves).

When the wrapped session carries a persistent
:class:`~repro.store.store.ExperimentStore`, every fidelity additionally
hydrates from and writes through it — estimates and fleet probes under
their own record kinds, simulations via ``Session.run``'s store path — so
a *restarted* tune against the same store performs zero simulations
(``EvaluatorStats.store_hydrations`` counts the replays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple, Union

from repro.cluster.faults import (
    FAULT_PRESETS,
    FaultModel,
    FaultTrace,
    RecoveryModel,
    parse_fault_spec,
)
from repro.cluster.market import PriceCurve, parse_price_curve
from repro.cluster.simulator import ClusterSimulator, EpochKey
from repro.cluster.spec import default_cluster
from repro.cluster.workload import (
    JobMix,
    JobSpec,
    TenantSpec,
    Workload,
    parse_tenant_shorthand,
    tenant_workload,
)
from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.data.loader import DataLoadModel
from repro.errors import ConfigurationError
from repro.fold import left_sum
from repro.models.layers import BYTES_PER_ELEMENT
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.parallel.estimator import StageTimeEstimator
from repro.parallel.executor import MAX_SIMULATED_STEPS, MIN_SIMULATED_STEPS
from repro.parallel.plan import SchedulePlan
from repro.parallel.registry import REGISTRY
from repro.store.keys import canonical_json, estimate_key, probe_key
from repro.tune.objective import TuneMeasurement, cost_per_epoch
from repro.tune.space import TunePoint

#: Tenant roster the SLO probe contends with when none is configured: a
#: best-effort batch tenant flooding the fleet plus a deadline-bound
#: production tenant trickling jobs in.
DEFAULT_SLO_TENANTS: Tuple[TenantSpec, ...] = (
    TenantSpec("batch", priority=0, rate=0.2),
    TenantSpec("prod", priority=2, deadline_policy="strict", rate=0.05),
)


def _count_probe(fidelity: str, amount: int = 1) -> None:
    """Evaluator probes (memo hits included) by fidelity.

    Batch entry points bump the counter once with ``amount`` set to the
    batch size, so grid-scale estimate sweeps stay one metric event.
    """
    get_registry().counter(
        "repro_tune_probes_total", "TuneEvaluator probes by fidelity"
    ).inc(amount, fidelity=fidelity)


@dataclass(frozen=True)
class _Scenario:
    """What one fleet-probe kind adds to the shared probe path."""

    #: The ``EvaluatorStats`` counters of fresh probes and of memo hits.
    runs: str
    hits: str
    #: The objectives a point without a placement policy cannot serve.
    objectives: str
    #: ``(record field, report attribute)`` pairs, in result order.
    fields: Tuple[Tuple[str, str], ...]
    #: Scenario fields of the probe's store key.
    key: dict = field(default_factory=dict)
    #: Extra :class:`ClusterSimulator` arguments.
    simulator: dict = field(default_factory=dict)
    #: Tenant roster the probe's jobs are split across (None = identical
    #: jobs all arriving at t=0).
    tenants: Optional[Tuple[TenantSpec, ...]] = None


@dataclass
class EvaluatorStats:
    """Work counters: how much each fidelity ran vs. hit a memo.

    Example:
        >>> from repro.tune.evaluator import EvaluatorStats
        >>> stats = EvaluatorStats(simulations=3, simulation_hits=9)
        >>> stats.to_dict()["simulations"]
        3
    """

    estimates: int = 0
    estimate_hits: int = 0
    simulations: int = 0
    simulation_hits: int = 0
    cluster_probes: int = 0
    cluster_probe_hits: int = 0
    goodput_probes: int = 0
    goodput_probe_hits: int = 0
    slo_probes: int = 0
    slo_probe_hits: int = 0
    #: Results served from the session's persistent store instead of being
    #: recomputed (estimates, simulations and fleet probes combined).
    store_hydrations: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class TuneEvaluator:
    """Session-backed candidate evaluation at three fidelities.

    Example:
        >>> from repro.tune.evaluator import TuneEvaluator
        >>> from repro.tune.space import TunePoint
        >>> point = TunePoint(task="nas", dataset="cifar10", server="a6000",
        ...                   num_gpus=2, batch_size=128, strategy="DP")
        >>> evaluator = TuneEvaluator(simulated_steps=4)
        >>> estimate = evaluator.estimate(point)
        >>> full = evaluator.measure(point)
        >>> (estimate.fidelity, full.fidelity, full.epoch_time > 0)
        ('estimate', 'simulated', True)
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        simulated_steps: int = 10,
        throughput_jobs: int = 12,
        faults: Union[FaultModel, FaultTrace, str, None] = None,
        elastic: str = "restart",
        fault_seed: int = 0,
        tenants: Union[Tuple[TenantSpec, ...], str, None] = None,
        price_curve: Union[PriceCurve, str, None] = None,
        slo_deadline_slack: float = 900.0,
    ) -> None:
        if simulated_steps < MIN_SIMULATED_STEPS:
            raise ConfigurationError(f"simulated_steps must be >= {MIN_SIMULATED_STEPS}")
        if simulated_steps > MAX_SIMULATED_STEPS:
            raise ConfigurationError(
                f"simulated_steps must be <= {MAX_SIMULATED_STEPS} (MAX_SIMULATED_STEPS), "
                f"got {simulated_steps}"
            )
        if throughput_jobs < 1:
            raise ConfigurationError("throughput_jobs must be >= 1")
        if not (math.isfinite(slo_deadline_slack) and slo_deadline_slack > 0):
            raise ConfigurationError(
                f"slo_deadline_slack must be finite and > 0 seconds, got {slo_deadline_slack}"
            )
        self.session = session if session is not None else Session()
        self.simulated_steps = simulated_steps
        self.throughput_jobs = throughput_jobs
        self.slo_deadline_slack = slo_deadline_slack
        self.stats = EvaluatorStats()
        self._estimates: Dict[Tuple, TuneMeasurement] = {}
        self._measurements: Dict[Tuple, TuneMeasurement] = {}
        #: Fleet-probe results by ``(kind, canonical key payload)``.
        self._probes: Dict[Tuple[str, str], Tuple[float, ...]] = {}
        # The goodput probe injects the bursty-preemption preset and the SLO
        # probe contends with DEFAULT_SLO_TENANTS unless told otherwise.
        if isinstance(faults, str):
            faults = parse_fault_spec(faults)
        if faults is None:
            faults = FAULT_PRESETS["bursty-preemption"]
        if isinstance(tenants, str):
            tenants = parse_tenant_shorthand(tenants)
        tenants = tuple(tenants) if tenants is not None else DEFAULT_SLO_TENANTS
        if not isinstance(price_curve, PriceCurve):
            price_curve = parse_price_curve(price_curve)
        fault_kind = "trace" if isinstance(faults, FaultTrace) else "model"
        self._scenarios = {
            "throughput": _Scenario(
                "cluster_probes",
                "cluster_probe_hits",
                "throughput",
                (("jobs_per_hour", "jobs_per_hour"),),
            ),
            "goodput": _Scenario(
                "goodput_probes",
                "goodput_probe_hits",
                "fault-goodput",
                (("goodput_jobs_per_hour", "goodput_jobs_per_hour"),),
                key={
                    "faults": {fault_kind: faults.to_dict()},
                    "elastic": elastic,
                    "fault_seed": fault_seed,
                    "recovery": RecoveryModel().to_dict(),
                },
                simulator={"faults": faults, "elastic": elastic, "fault_seed": fault_seed},
            ),
            "slo": _Scenario(
                "slo_probes",
                "slo_probe_hits",
                "SLO",
                (
                    ("deadline_hit_rate", "deadline_hit_rate"),
                    ("cost_usd_per_job", "cost_per_job"),
                ),
                key={
                    "tenants": [spec.to_dict() for spec in tenants],
                    "price_curve": price_curve.to_dict() if price_curve is not None else {},
                    "deadline_slack": slo_deadline_slack,
                },
                simulator={"price_curve": price_curve},
                tenants=tenants,
            ),
        }
        #: Epoch-time memo shared by every fleet probe of this evaluator.
        self._cluster_epoch_times: Dict[EpochKey, float] = {}

    # ------------------------------------------------------------------ #
    # Fidelity 0: analytic estimate (no discrete-event simulation)
    # ------------------------------------------------------------------ #
    def estimate(self, point: TunePoint) -> TuneMeasurement:
        """Analytic epoch-time estimate; builds the plan but never simulates.

        Estimates are memoised in this evaluator and — when the session has
        a persistent store — hydrated from / written through it, so a
        restarted tuning run re-derives no analytic model either.
        """
        _count_probe("estimate")
        cached = self._estimate_cached(point)
        if cached is not None:
            return cached
        with span("tune.estimate", point=point.label()):
            return self._estimate_compute(point)

    def estimate_all(self, points) -> Dict[TunePoint, TuneMeasurement]:
        """Batch twin of :meth:`estimate`: one span + counter for the grid.

        Rung 0 of successive halving estimates *every* grid point; doing
        that through :meth:`estimate` emits one span and one counter bump
        per cell, which drowns profile reports at grid scale.  This entry
        point records a single ``tune.estimate_all`` span (annotated with
        the batch size and miss count) and one counter increment for the
        whole batch, while sharing the same memo and store path cell for
        cell.
        """
        points = list(points)
        _count_probe("estimate", amount=len(points))
        results: Dict[TunePoint, TuneMeasurement] = {}
        missing = []
        for point in points:
            cached = self._estimate_cached(point)
            if cached is not None:
                results[point] = cached
            else:
                missing.append(point)
        if missing:
            with span(
                "tune.estimate_all", count=len(points), misses=len(missing)
            ):
                for point in missing:
                    results[point] = self._estimate_compute(point)
        return {point: results[point] for point in points}

    def _estimate_cached(self, point: TunePoint) -> Optional[TuneMeasurement]:
        """Memo / store lookup for one estimate; None on a miss."""
        key = point.cell_signature()
        if key in self._estimates:
            self.stats.estimate_hits += 1
            return replace(self._estimates[key], point=point)
        store = self.session.store
        if store is not None:
            stored = store.get("estimate", estimate_key(key))
            if stored is not None:
                try:
                    epoch_time = float(stored["epoch_time_s"])
                    cost = float(stored["cost_usd_per_epoch"])
                except (KeyError, TypeError, ValueError) as error:
                    raise store.malformed("estimate", estimate_key(key), error) from error
                measurement = TuneMeasurement(
                    point=point,
                    epoch_time=epoch_time,
                    cost=cost,
                    fidelity="estimate",
                    simulated_steps=0,
                )
                self._estimates[key] = measurement
                self.stats.store_hydrations += 1
                return measurement
        return None

    def _estimate_compute(self, point: TunePoint) -> TuneMeasurement:
        """Build the plan, score it analytically, memoise and store-write."""
        config = point.config(self.simulated_steps)
        session = self.session
        pair = session.pair(config)
        server = session.server(config)
        dataset = session.dataset(config)
        planner = REGISTRY.get(point.strategy)
        profile = session.profile(config) if planner.requires_profile else None
        plan = planner.build(pair, server, config.batch_size, dataset, profile=profile)

        if plan.kind == "pipeline":
            if profile is None:
                profile = session.profile(config)
            # The winning plan's per-stage breakdown; the planner search
            # scored its candidates with the same StageTimeEstimator.
            estimator = StageTimeEstimator(
                pair=pair, server=server, dataset=dataset, profile=profile
            )
            step_time = self._pipeline_step_time(plan, estimator)
        elif plan.kind == "layerwise":
            step_time = self._layerwise_step_time(plan, config)
        else:
            step_time = self._data_parallel_step_time(plan, config)

        epoch_time = step_time * dataset.steps_per_epoch(config.batch_size)
        measurement = TuneMeasurement(
            point=point,
            epoch_time=epoch_time,
            cost=cost_per_epoch(point.server, point.num_gpus, epoch_time),
            fidelity="estimate",
            simulated_steps=0,
        )
        self._estimates[point.cell_signature()] = measurement
        self.stats.estimates += 1
        store = self.session.store
        if store is not None:
            store.put(
                "estimate",
                estimate_key(point.cell_signature()),
                {
                    "epoch_time_s": measurement.epoch_time,
                    "cost_usd_per_epoch": measurement.cost,
                },
            )
        return measurement

    @staticmethod
    def _pipeline_step_time(plan: SchedulePlan, estimator) -> float:
        """Steady-state step time of a pipeline plan.

        ``estimator`` is a
        :class:`~repro.parallel.estimator.StageTimeEstimator`; its
        ``stage_estimates`` give the per-stage breakdown.

        Decoupled plans (DPU) run stages independently, so throughput is set
        by the slowest stage (paper SIV-C).  Plans that keep the per-step
        barrier (plain TR) serialise on the teacher-relay chain instead: a
        stage cannot start its step before every earlier stage's teacher has
        run, so its finish time is the teacher prefix plus its own student
        work, and the step time is the slowest such finish.
        """
        estimates = estimator.stage_estimates(plan)
        if plan.decoupled_update:
            return max(estimate.total for estimate in estimates)
        critical = 0.0
        teacher_prefix = 0.0
        for estimate in estimates:
            teacher_prefix += estimate.teacher
            critical = max(
                critical,
                teacher_prefix + estimate.student + estimate.update + estimate.allreduce,
            )
        overlapped = max(
            max(estimate.data_load for estimate in estimates),
            max(estimate.relay for estimate in estimates),
        )
        return max(critical, overlapped)

    def _layerwise_step_time(self, plan: SchedulePlan, config: ExperimentConfig) -> float:
        """Max-device step time of an LS plan (teacher prefix + owned blocks)."""
        pair = self.session.pair(config)
        server = self.session.server(config)
        cost_model = server.cost_model()
        loader = DataLoadModel(dataset=self.session.dataset(config), host=server.host)
        batch = plan.batch_size
        rounds = pair.student_rounds_per_step
        load_time = loader.batch_load_time(batch, concurrent_loaders=1)
        assert plan.device_blocks is not None
        device_times = []
        for block_ids in plan.device_blocks.values():
            prefix = range(max(block_ids) + 1)
            compute = left_sum(
                cost_model.block_forward_time(pair.teacher.block(i), batch) for i in prefix
            )
            for block_id in block_ids:
                student = pair.student.block(block_id)
                compute += rounds * (
                    cost_model.block_forward_time(student, batch)
                    + cost_model.block_backward_time(student, batch)
                )
                compute += cost_model.weight_update_time(student)
            device_times.append(max(compute, load_time))
        return max(device_times)

    def _data_parallel_step_time(self, plan: SchedulePlan, config: ExperimentConfig) -> float:
        """Summed per-block step time of the DP baseline (blocks run serially)."""
        pair = self.session.pair(config)
        server = self.session.server(config)
        cost_model = server.cost_model()
        loader = DataLoadModel(dataset=self.session.dataset(config), host=server.host)
        micro_batch = max(1, plan.batch_size // plan.num_devices)
        rounds = pair.student_rounds_per_step
        load_time = loader.batch_load_time(micro_batch, concurrent_loaders=1)
        total = 0.0
        teacher_prefix = 0.0
        for block_id in range(plan.num_blocks):
            teacher_prefix += cost_model.block_forward_time(
                pair.teacher.block(block_id), micro_batch
            )
            student = pair.student.block(block_id)
            compute = teacher_prefix
            compute += rounds * (
                cost_model.block_forward_time(student, micro_batch)
                + cost_model.block_backward_time(student, micro_batch)
            )
            compute += cost_model.weight_update_time(student)
            if plan.num_devices > 1:
                compute += server.interconnect.allreduce_time(
                    float(student.params * BYTES_PER_ELEMENT), plan.num_devices
                )
            total += max(compute, load_time)
        return total

    # ------------------------------------------------------------------ #
    # Fidelity 1..n: memoised discrete-event simulation
    # ------------------------------------------------------------------ #
    def measure(self, point: TunePoint, steps: Optional[int] = None) -> TuneMeasurement:
        """Run the cell's discrete-event simulation, memoised by fidelity."""
        _count_probe("simulate")
        steps = self.simulated_steps if steps is None else steps
        key = point.cell_signature() + (steps,)
        if key in self._measurements:
            self.stats.simulation_hits += 1
            return replace(self._measurements[key], point=point)
        runs_before = self.session.stats.runs
        with span("tune.measure", point=point.label(), steps=steps):
            result = self.session.run(point.config(steps))
        measurement = TuneMeasurement(
            point=point,
            epoch_time=result.epoch_time,
            cost=cost_per_epoch(point.server, point.num_gpus, result.epoch_time),
            fidelity="simulated",
            simulated_steps=steps,
            max_memory_gb=result.max_memory_gb(),
        )
        self._measurements[key] = measurement
        # A store-hydrated result is not a fresh discrete-event simulation;
        # tell them apart so budget accounting stays honest across restarts.
        if self.session.stats.runs > runs_before:
            self.stats.simulations += 1
        else:
            self.stats.store_hydrations += 1
        return measurement

    # ------------------------------------------------------------------ #
    # Fleet probes: throughput, goodput under faults, multi-tenant SLO
    # ------------------------------------------------------------------ #
    def throughput(self, point: TunePoint, steps: Optional[int] = None) -> float:
        """Jobs/hour of a fleet saturated with this candidate's jobs.

        The probe gang-schedules ``throughput_jobs`` identical copies of the
        candidate cell (all arriving at t=0) under the point's placement
        policy, sharing one epoch-time memo across every probe of the search.
        """
        return self._probe("throughput", point, steps)[0]

    def goodput(self, point: TunePoint, steps: Optional[int] = None) -> float:
        """Useful jobs/hour of a fault-injected fleet running this candidate.

        Same probe shape as :meth:`throughput`, but with the evaluator's
        fault scenario replayed through the elastic simulator, scoring the
        report's
        :attr:`~repro.analysis.cluster_report.ClusterReport.goodput_jobs_per_hour`.
        """
        return self._probe("goodput", point, steps)[0]

    def slo(self, point: TunePoint, steps: Optional[int] = None) -> Tuple[float, float]:
        """``(deadline_hit_rate, cost_per_job)`` of a contended tenant fleet.

        The probe gang-schedules ``throughput_jobs`` copies of the
        candidate cell split across the evaluator's tenant roster (rate
        weights decide the split, deadline tenants get
        ``slo_deadline_slack`` seconds past arrival) under the point's
        placement policy, with GPU-seconds metered through the price
        curve.
        """
        return self._probe("slo", point, steps)

    def _probe(self, kind: str, point: TunePoint, steps: Optional[int]) -> Tuple[float, ...]:
        """Run (or replay) one fleet probe; its record fields, in order.

        Every probe kind shares this path: one memo keyed by the probe's
        store-key payload (so a memo hit means what a store hit means),
        the store records of that kind, and the epoch-time memo, so
        policies replay the fleet without new discrete-event simulations.
        """
        scenario = self._scenarios[kind]
        if point.policy is None:
            raise ConfigurationError(
                f"candidate {point.label()!r} has no placement policy; "
                f"{scenario.objectives} objectives need a space with a policies axis"
            )
        _count_probe(kind)
        steps = self.simulated_steps if steps is None else steps
        cluster = point.cluster if point.cluster is not None else default_cluster()
        key = probe_key(
            point.cell_signature(),
            steps,
            self.throughput_jobs,
            point.policy,
            cluster.to_dict(),
            scenario.key,
        )
        memo_key = (kind, canonical_json(key))
        if memo_key in self._probes:
            setattr(self.stats, scenario.hits, getattr(self.stats, scenario.hits) + 1)
            return self._probes[memo_key]
        store = self.session.store
        if store is not None:
            stored = store.get(kind, key)
            if stored is not None:
                try:
                    value = tuple(float(stored[name]) for name, _ in scenario.fields)
                except (KeyError, TypeError, ValueError) as error:
                    raise store.malformed(kind, key, error) from error
                self._probes[memo_key] = value
                self.stats.store_hydrations += 1
                return value
        simulator = ClusterSimulator(
            cluster,
            policy=point.policy,
            session=self.session,
            epoch_time_cache=self._cluster_epoch_times,
            **scenario.simulator,
        )
        with span(f"tune.{kind}", point=point.label()):
            report = simulator.run(self._probe_workload(scenario, point, steps))
        value = tuple(getattr(report, attribute) for _, attribute in scenario.fields)
        self._probes[memo_key] = value
        setattr(self.stats, scenario.runs, getattr(self.stats, scenario.runs) + 1)
        if store is not None:
            record = {name: number for (name, _), number in zip(scenario.fields, value)}
            store.put(kind, key, record)
        return value

    def _probe_workload(self, scenario: _Scenario, point: TunePoint, steps: int) -> Workload:
        """``throughput_jobs`` copies of the candidate cell.

        Without a tenant roster they are identical jobs all arriving at
        t=0; with one they are split across its tenants' arrival streams.
        """
        if scenario.tenants is None:
            jobs = tuple(
                JobSpec(
                    job_id=f"tune-{index:03d}",
                    arrival_time=0.0,
                    gpus=point.num_gpus,
                    task=point.task,
                    dataset=point.dataset,
                    batch_size=point.batch_size,
                    strategy=point.strategy,
                    epochs=1,
                    simulated_steps=steps,
                )
                for index in range(self.throughput_jobs)
            )
            return Workload(name=f"tune-probe({point.label()})", jobs=jobs)
        mix = JobMix(
            tasks=(point.task,),
            batch_sizes=(point.batch_size,),
            gpu_demands=(point.num_gpus,),
            strategies=(point.strategy,),
            epochs=(1,),
        )
        workload = tenant_workload(
            scenario.tenants,
            self.throughput_jobs,
            seed=0,
            mixes={spec.name: mix for spec in scenario.tenants},
            deadline_slack=self.slo_deadline_slack,
            name=f"tune-slo({point.label()})",
        )
        return replace(
            workload,
            jobs=tuple(replace(job, simulated_steps=steps) for job in workload.jobs),
        )

    # ------------------------------------------------------------------ #
    def evaluate(self, point: TunePoint, objective, steps: Optional[int] = None) -> TuneMeasurement:
        """Full-fidelity evaluation for an objective (fleet probe if needed)."""
        measurement = self.measure(point, steps)
        if getattr(objective, "needs_tenants", False):
            hit_rate, cost_per_job = self.slo(point, steps)
            measurement = replace(
                measurement,
                deadline_hit_rate=hit_rate,
                cost_per_job=cost_per_job,
            )
        elif getattr(objective, "needs_faults", False):
            measurement = replace(measurement, goodput=self.goodput(point, steps))
        elif getattr(objective, "needs_cluster", False):
            measurement = replace(
                measurement, jobs_per_hour=self.throughput(point, steps)
            )
        return measurement
