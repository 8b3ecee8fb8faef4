"""Multi-job workloads: job specs, seeded generators and JSON trace replay.

A :class:`JobSpec` is one distillation job submitted to the fleet — an
experiment cell (task, dataset, batch size, strategy) plus a GPU gang size,
an arrival time and an epoch count.  The job deliberately does *not* fix a
server preset: which hardware it runs on is the scheduler's decision, so the
:class:`~repro.core.config.ExperimentConfig` is only materialised once a
placement names a node.

Workloads come from four sources, all deterministic:

* :func:`poisson_workload` — memoryless arrivals at a given rate (the classic
  open-loop traffic model),
* :func:`bursty_workload` — synchronised bursts separated by lulls (the
  hardest case for gang scheduling, since a burst's gangs contend at once),
* :func:`diurnal_workload` / :func:`tenant_workload` — time-varying arrivals
  and multi-tenant fleets: each :class:`TenantSpec` (priority, GPU quota,
  budget, deadline policy) contributes its own seeded sub-stream, and jobs
  carry tenant tags + optional deadlines for the SLO analytics,
* :meth:`Workload.load` — JSON trace replay, so real or hand-crafted traces
  run through the exact same simulator path as generated ones.

Documented in ``docs/API.md`` (cluster layer) and ``docs/TENANTS.md``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence, Tuple

from repro.core.config import ExperimentConfig, VALID_DATASETS, VALID_TASKS
from repro.errors import ConfigurationError
from repro.fold import left_sum
from repro.parallel.executor import MIN_SIMULATED_STEPS
from repro.parallel.registry import REGISTRY

#: How a tenant's job deadlines are interpreted by the SLO analytics.
DEADLINE_POLICIES = ("none", "soft", "strict")

#: Epoch-time memo key: experiment cell + strategy + simulated step count.
#: Complete by construction — epoch time depends on nothing else (in
#: particular not on the placement policy, the elastic policy or the fault
#: trace), so the memo is safely shared across policy comparisons and
#: fault-injected replays.  :meth:`JobSpec.epoch_key` builds it.
EpochKey = Tuple[Tuple[str, str, str, int, int], str, int]


def _finite_positive(value: float) -> bool:
    """``value > 0`` and finite; a bare ``<= 0`` guard lets NaN through."""
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a shared fleet: identity plus scheduling contract.

    ``priority`` orders tenants for the ``priority`` policy (higher wins
    and may preempt), ``quota_gpus`` caps concurrently-held GPUs,
    ``budget_per_gpu_hour`` is the spot price above which the tenant
    would rather queue, and ``deadline_policy`` says whether this
    tenant's jobs carry deadlines (``"soft"``/``"strict"``) or not
    (``"none"``).  ``rate``/``deadline_slack`` parameterise
    :func:`tenant_workload` generation.

    Example:
        >>> from repro.cluster.workload import TenantSpec
        >>> TenantSpec("prod", priority=2, deadline_policy="strict").to_dict()["name"]
        'prod'
    """

    name: str
    priority: int = 0
    quota_gpus: Optional[int] = None
    budget_per_gpu_hour: Optional[float] = None
    deadline_policy: str = "none"
    rate: Optional[float] = None
    deadline_slack: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name or any(ch in self.name for ch in ";:,= "):
            raise ConfigurationError(
                f"tenant name {self.name!r} must be non-empty and free of ';:,= '"
            )
        if self.quota_gpus is not None and self.quota_gpus < 1:
            raise ConfigurationError(f"tenant {self.name!r} quota_gpus must be >= 1")
        if self.budget_per_gpu_hour is not None and not _finite_positive(
            self.budget_per_gpu_hour
        ):
            raise ConfigurationError(f"tenant {self.name!r} budget must be finite and > 0")
        if self.deadline_policy not in DEADLINE_POLICIES:
            raise ConfigurationError(
                f"tenant {self.name!r} deadline_policy must be one of "
                f"{DEADLINE_POLICIES}, got {self.deadline_policy!r}"
            )
        if self.rate is not None and not _finite_positive(self.rate):
            raise ConfigurationError(f"tenant {self.name!r} rate must be finite and > 0")
        if self.deadline_slack is not None and not _finite_positive(self.deadline_slack):
            raise ConfigurationError(
                f"tenant {self.name!r} deadline_slack must be finite and > 0"
            )

    @property
    def has_deadlines(self) -> bool:
        return self.deadline_policy != "none"

    def to_dict(self) -> dict:
        payload: dict = {"name": self.name, "priority": self.priority}
        if self.quota_gpus is not None:
            payload["quota_gpus"] = self.quota_gpus
        if self.budget_per_gpu_hour is not None:
            payload["budget_per_gpu_hour"] = self.budget_per_gpu_hour
        if self.deadline_policy != "none":
            payload["deadline_policy"] = self.deadline_policy
        if self.rate is not None:
            payload["rate"] = self.rate
        if self.deadline_slack is not None:
            payload["deadline_slack"] = self.deadline_slack
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TenantSpec":
        return cls(
            name=str(payload["name"]),
            priority=int(payload.get("priority", 0)),
            quota_gpus=(
                int(payload["quota_gpus"]) if payload.get("quota_gpus") is not None else None
            ),
            budget_per_gpu_hour=(
                float(payload["budget_per_gpu_hour"])
                if payload.get("budget_per_gpu_hour") is not None
                else None
            ),
            deadline_policy=str(payload.get("deadline_policy", "none")),
            rate=float(payload["rate"]) if payload.get("rate") is not None else None,
            deadline_slack=(
                float(payload["deadline_slack"])
                if payload.get("deadline_slack") is not None
                else None
            ),
        )


#: Shorthand keys accepted by :func:`parse_tenant_shorthand`.
_TENANT_KEYS = {
    "priority": ("priority", int),
    "quota": ("quota_gpus", int),
    "budget": ("budget_per_gpu_hour", float),
    "deadline": ("deadline_policy", str),
    "rate": ("rate", float),
    "slack": ("deadline_slack", float),
}


def parse_tenant_shorthand(text: str) -> Tuple[TenantSpec, ...]:
    """Parse the CLI/API tenant shorthand into :class:`TenantSpec` tuples.

    Grammar: ``name[:key=value[,key=value...]]`` joined by ``;``.  Keys:
    ``priority`` (int), ``quota`` (GPUs), ``budget`` ($/GPU-hour),
    ``deadline`` (``none``/``soft``/``strict``), ``rate`` (jobs/sec),
    ``slack`` (deadline slack seconds).

    Example:
        >>> from repro.cluster.workload import parse_tenant_shorthand
        >>> prod, batch = parse_tenant_shorthand(
        ...     "prod:priority=2,quota=8,deadline=strict;batch")
        >>> (prod.priority, prod.quota_gpus, batch.name)
        (2, 8, 'batch')
    """
    specs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, options = chunk.partition(":")
        kwargs: dict = {}
        for option in filter(None, (o.strip() for o in options.split(","))):
            key, sep, value = option.partition("=")
            if not sep or key not in _TENANT_KEYS:
                raise ConfigurationError(
                    f"bad tenant option {option!r} for {name.strip()!r}; "
                    f"known keys: {sorted(_TENANT_KEYS)}"
                )
            field_name, cast = _TENANT_KEYS[key]
            try:
                kwargs[field_name] = cast(value)
            except ValueError as error:
                raise ConfigurationError(
                    f"bad tenant option {option!r}: {error}"
                ) from None
        specs.append(TenantSpec(name=name.strip(), **kwargs))
    if not specs:
        raise ConfigurationError(f"tenant shorthand {text!r} names no tenants")
    return tuple(specs)


@dataclass(frozen=True)
class JobSpec:
    """One distillation job in a cluster workload.

    Example:
        >>> from repro.cluster.workload import JobSpec
        >>> job = JobSpec(job_id="j0", arrival_time=0.0, gpus=2,
        ...               batch_size=128, strategy="TR", simulated_steps=4)
        >>> job.experiment_config("a6000").cell_label()
        'nas/cifar10/a6000x2/b128'
    """

    job_id: str
    arrival_time: float
    gpus: int
    task: str = "nas"
    dataset: str = "cifar10"
    batch_size: int = 256
    strategy: str = "TR+DPU+AHD"
    epochs: int = 1
    simulated_steps: int = 6
    tenant: str = "default"
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigurationError("job_id must be non-empty")
        if not self.tenant:
            raise ConfigurationError(f"job {self.job_id!r} tenant must be non-empty")
        if self.deadline is not None and not (
            math.isfinite(self.deadline) and self.deadline > self.arrival_time
        ):
            raise ConfigurationError(
                f"job {self.job_id!r} deadline ({self.deadline}) must be finite "
                f"and after its arrival ({self.arrival_time})"
            )
        if not math.isfinite(self.arrival_time) or self.arrival_time < 0:
            raise ConfigurationError(
                f"job {self.job_id!r} arrival_time must be finite and >= 0"
            )
        if self.gpus < 1:
            raise ConfigurationError(f"job {self.job_id!r} must request >= 1 GPU")
        if self.epochs < 1:
            raise ConfigurationError(f"job {self.job_id!r} must train >= 1 epoch")
        if self.task not in VALID_TASKS:
            raise ConfigurationError(
                f"job {self.job_id!r} task must be one of {VALID_TASKS}, got {self.task!r}"
            )
        if self.dataset not in VALID_DATASETS:
            raise ConfigurationError(
                f"job {self.job_id!r} dataset must be one of {VALID_DATASETS}, "
                f"got {self.dataset!r}"
            )
        if self.batch_size < self.gpus:
            raise ConfigurationError(
                f"job {self.job_id!r} batch_size ({self.batch_size}) must be >= "
                f"gpus ({self.gpus})"
            )
        if self.strategy not in REGISTRY:
            raise ConfigurationError(
                f"job {self.job_id!r} uses unknown strategy {self.strategy!r}; "
                f"registered: {REGISTRY.names()}"
            )
        if self.simulated_steps < MIN_SIMULATED_STEPS:
            raise ConfigurationError(
                f"job {self.job_id!r} simulated_steps must be >= {MIN_SIMULATED_STEPS}, "
                f"got {self.simulated_steps}"
            )

    # ------------------------------------------------------------------ #
    def experiment_config(self, server: str) -> ExperimentConfig:
        """The single-server experiment cell this job runs once placed."""
        return ExperimentConfig(
            task=self.task,
            dataset=self.dataset,
            server=server,
            num_gpus=self.gpus,
            batch_size=self.batch_size,
            strategy=self.strategy,
            simulated_steps=self.simulated_steps,
        )

    def epoch_key(self, server: str) -> EpochKey:
        """The epoch-time memo key of this job on ``server``.

        Equal to ``(self.experiment_config(server).cell_key(), strategy,
        simulated_steps)``, built without the config, so a fleet replay
        reads its memo without an ``ExperimentConfig`` per placement.
        """
        return (
            (self.task, self.dataset, server, self.gpus, self.batch_size),
            self.strategy,
            self.simulated_steps,
        )

    def describe(self) -> str:
        return (
            f"{self.job_id}: {self.task}/{self.dataset} b{self.batch_size} "
            f"{self.strategy} x{self.gpus}gpu, {self.epochs} epoch(s), "
            f"t={self.arrival_time:.1f}s"
        )

    def to_dict(self) -> dict:
        payload = {
            "job_id": self.job_id,
            "arrival_time": self.arrival_time,
            "gpus": self.gpus,
            "task": self.task,
            "dataset": self.dataset,
            "batch_size": self.batch_size,
            "strategy": self.strategy,
            "epochs": self.epochs,
            "simulated_steps": self.simulated_steps,
        }
        # Emitted only when set, so pre-tenancy traces stay byte-identical.
        if self.tenant != "default":
            payload["tenant"] = self.tenant
        if self.deadline is not None:
            payload["deadline"] = self.deadline
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        return cls(
            job_id=payload["job_id"],
            arrival_time=float(payload["arrival_time"]),
            gpus=int(payload["gpus"]),
            task=payload.get("task", "nas"),
            dataset=payload.get("dataset", "cifar10"),
            batch_size=int(payload.get("batch_size", 256)),
            strategy=payload.get("strategy", "TR+DPU+AHD"),
            epochs=int(payload.get("epochs", 1)),
            simulated_steps=int(payload.get("simulated_steps", 6)),
            tenant=payload.get("tenant", "default"),
            deadline=(
                float(payload["deadline"]) if payload.get("deadline") is not None else None
            ),
        )


@dataclass(frozen=True)
class JobMix:
    """The categorical mix a workload generator samples jobs from.

    Example:
        >>> import random
        >>> from repro.cluster.workload import JobMix
        >>> mix = JobMix(gpu_demands=(2,), strategies=("TR",))
        >>> mix.sample(random.Random(0), "j0", 1.0).strategy
        'TR'
    """

    tasks: Tuple[str, ...] = ("nas", "compression")
    datasets: Tuple[str, ...] = ("cifar10",)
    batch_sizes: Tuple[int, ...] = (128, 256)
    gpu_demands: Tuple[int, ...] = (1, 2, 4)
    strategies: Tuple[str, ...] = ("TR+DPU+AHD", "TR")
    epochs: Tuple[int, ...] = (1, 2, 3)

    def __post_init__(self) -> None:
        for field_name in (
            "tasks",
            "datasets",
            "batch_sizes",
            "gpu_demands",
            "strategies",
            "epochs",
        ):
            if not getattr(self, field_name):
                raise ConfigurationError(f"job mix {field_name} must be non-empty")

    def sample(self, rng: random.Random, job_id: str, arrival_time: float) -> JobSpec:
        """Draw one job; every categorical axis is sampled independently."""
        return JobSpec(
            job_id=job_id,
            arrival_time=arrival_time,
            gpus=rng.choice(self.gpu_demands),
            task=rng.choice(self.tasks),
            dataset=rng.choice(self.datasets),
            batch_size=rng.choice(self.batch_sizes),
            strategy=rng.choice(self.strategies),
            epochs=rng.choice(self.epochs),
        )


#: Default mix: both paper tasks, CIFAR-scale data, mixed gangs and strategies.
DEFAULT_MIX = JobMix()


@dataclass(frozen=True)
class Workload:
    """An arrival-ordered stream of jobs submitted to the cluster.

    Example:
        >>> from repro.cluster.workload import poisson_workload
        >>> workload = poisson_workload(num_jobs=5, rate=1.0, seed=0)
        >>> (len(workload), workload.max_gpu_demand <= 4)
        (5, True)
    """

    name: str
    jobs: Tuple[JobSpec, ...]
    tenants: Tuple[TenantSpec, ...] = ()

    def __post_init__(self) -> None:
        ids = [job.job_id for job in self.jobs]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"workload {self.name!r} has duplicate job ids")
        arrivals = [job.arrival_time for job in self.jobs]
        if arrivals != sorted(arrivals):
            raise ConfigurationError(
                f"workload {self.name!r} jobs must be sorted by arrival time"
            )
        tenant_names = [spec.name for spec in self.tenants]
        if len(set(tenant_names)) != len(tenant_names):
            raise ConfigurationError(f"workload {self.name!r} has duplicate tenants")
        if self.tenants:
            declared = set(tenant_names)
            unknown = sorted({job.tenant for job in self.jobs} - declared)
            if unknown:
                raise ConfigurationError(
                    f"workload {self.name!r} jobs reference undeclared tenants "
                    f"{unknown}; declared: {sorted(declared)}"
                )

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self.jobs)

    @property
    def max_gpu_demand(self) -> int:
        return max((job.gpus for job in self.jobs), default=0)

    @property
    def duration(self) -> float:
        """Span of the arrival process (latest arrival time).

        Computed as a max rather than ``jobs[-1]`` so the answer stays
        right even if a subclass or future constructor relaxes the
        sorted-arrivals invariant that ``__post_init__`` enforces today.
        """
        return max((job.arrival_time for job in self.jobs), default=0.0)

    @property
    def tenant_names(self) -> Tuple[str, ...]:
        """Declared tenants, or the distinct job tags when none declared."""
        if self.tenants:
            return tuple(spec.name for spec in self.tenants)
        return tuple(sorted({job.tenant for job in self.jobs}))

    def tenant_map(self) -> Mapping[str, TenantSpec]:
        return {spec.name: spec for spec in self.tenants}

    def describe(self) -> str:
        return (
            f"{self.name}: {len(self.jobs)} jobs over {self.duration:.1f}s, "
            f"max gang {self.max_gpu_demand} GPUs"
        )

    # ------------------------------------------------------------------ #
    # JSON trace replay
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        payload: dict = {"name": self.name, "jobs": [job.to_dict() for job in self.jobs]}
        if self.tenants:
            payload["tenants"] = [spec.to_dict() for spec in self.tenants]
        return payload

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "Workload":
        jobs = sorted(
            (JobSpec.from_dict(job) for job in payload["jobs"]),
            key=lambda job: job.arrival_time,
        )
        return cls(
            name=payload.get("name", "trace"),
            jobs=tuple(jobs),
            tenants=tuple(
                TenantSpec.from_dict(spec) for spec in payload.get("tenants", ())
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        target = Path(path)
        target.write_text(self.to_json())
        return target

    @classmethod
    def load(cls, path: str | Path) -> "Workload":
        return cls.from_json(Path(path).read_text())


# ---------------------------------------------------------------------- #
# Generators (seeded, deterministic)
# ---------------------------------------------------------------------- #
def poisson_workload(
    num_jobs: int,
    rate: float,
    seed: int = 0,
    mix: JobMix = DEFAULT_MIX,
    name: str | None = None,
) -> Workload:
    """Poisson arrivals: exponential inter-arrival gaps at ``rate`` jobs/sec.

    Example:
        >>> from repro.cluster.workload import poisson_workload
        >>> first = poisson_workload(num_jobs=3, rate=0.5, seed=1)
        >>> second = poisson_workload(num_jobs=3, rate=0.5, seed=1)
        >>> first == second  # seeded, deterministic
        True
    """
    if num_jobs < 1:
        raise ConfigurationError("num_jobs must be >= 1")
    if not _finite_positive(rate):
        raise ConfigurationError(f"arrival rate must be finite and > 0, got {rate}")
    rng = random.Random(seed)
    jobs = []
    now = 0.0
    for index in range(num_jobs):
        now += rng.expovariate(rate)
        jobs.append(mix.sample(rng, job_id=f"job-{index:04d}", arrival_time=now))
    return Workload(
        name=name or f"poisson(rate={rate:g}, n={num_jobs}, seed={seed})",
        jobs=tuple(jobs),
    )


def bursty_workload(
    num_jobs: int,
    burst_size: int = 8,
    burst_gap: float = 120.0,
    seed: int = 0,
    mix: JobMix = DEFAULT_MIX,
    name: str | None = None,
) -> Workload:
    """Bursty arrivals: gangs land ``burst_size`` at a time, then a lull.

    All jobs of a burst share one arrival instant — the adversarial case for
    gang scheduling, because every gang in the burst contends for the fleet
    simultaneously.  Lulls between bursts are exponential with mean
    ``burst_gap`` seconds.

    Example:
        >>> from repro.cluster.workload import bursty_workload
        >>> workload = bursty_workload(num_jobs=6, burst_size=3, seed=0)
        >>> arrivals = [job.arrival_time for job in workload]
        >>> len(set(arrivals))  # two bursts -> two distinct instants
        2
    """
    if num_jobs < 1:
        raise ConfigurationError("num_jobs must be >= 1")
    if burst_size < 1:
        raise ConfigurationError("burst_size must be >= 1")
    if not _finite_positive(burst_gap):
        raise ConfigurationError(f"burst_gap must be finite and > 0, got {burst_gap}")
    rng = random.Random(seed)
    jobs = []
    now = 0.0
    index = 0
    while index < num_jobs:
        now += rng.expovariate(1.0 / burst_gap)
        for _ in range(min(burst_size, num_jobs - index)):
            jobs.append(mix.sample(rng, job_id=f"job-{index:04d}", arrival_time=now))
            index += 1
    return Workload(
        name=name or f"bursty(size={burst_size}, n={num_jobs}, seed={seed})",
        jobs=tuple(jobs),
    )


def _diurnal_arrivals(
    rng: random.Random,
    num_jobs: int,
    base_rate: float,
    peak_rate: float,
    period: float,
) -> list:
    """Poisson-thinning arrivals for a sinusoidal rate profile.

    The instantaneous rate swings between ``base_rate`` (trough, at
    t=0) and ``peak_rate`` over each ``period`` seconds; candidates are
    drawn at the peak rate and accepted with probability
    ``rate(t) / peak_rate`` — the standard thinning construction for a
    non-homogeneous Poisson process.
    """
    arrivals = []
    now = 0.0
    while len(arrivals) < num_jobs:
        now += rng.expovariate(peak_rate)
        rate = base_rate + (peak_rate - base_rate) * 0.5 * (
            1.0 - math.cos(2.0 * math.pi * now / period)
        )
        if rng.random() < rate / peak_rate:
            arrivals.append(now)
    return arrivals


def diurnal_workload(
    num_jobs: int,
    *,
    base_rate: float = 0.02,
    peak_rate: float = 0.2,
    period: float = 3600.0,
    seed: int = 0,
    mix: JobMix = DEFAULT_MIX,
    name: str | None = None,
) -> Workload:
    """Diurnal arrivals: a sinusoidal rate between trough and peak.

    Example:
        >>> from repro.cluster.workload import diurnal_workload
        >>> first = diurnal_workload(6, seed=3)
        >>> first == diurnal_workload(6, seed=3)  # seeded, deterministic
        True
    """
    if num_jobs < 1:
        raise ConfigurationError("num_jobs must be >= 1")
    if not (_finite_positive(base_rate) and _finite_positive(peak_rate)):
        raise ConfigurationError("diurnal rates must be finite and > 0")
    if peak_rate < base_rate:
        raise ConfigurationError("peak_rate must be >= base_rate")
    if not _finite_positive(period):
        raise ConfigurationError("diurnal period must be finite and > 0")
    rng = random.Random(seed)
    jobs = [
        mix.sample(rng, job_id=f"job-{index:04d}", arrival_time=arrival)
        for index, arrival in enumerate(
            _diurnal_arrivals(rng, num_jobs, base_rate, peak_rate, period)
        )
    ]
    return Workload(
        name=name or f"diurnal(peak={peak_rate:g}, n={num_jobs}, seed={seed})",
        jobs=tuple(jobs),
    )


def tenant_workload(
    tenants: Sequence[TenantSpec],
    num_jobs: int,
    *,
    rate: float = 0.1,
    seed: int = 0,
    mixes: Optional[Mapping[str, JobMix]] = None,
    deadline_slack: float = 900.0,
    diurnal: bool = False,
    period: float = 3600.0,
    name: str | None = None,
) -> Workload:
    """A multi-tenant workload: one seeded sub-stream per tenant, merged.

    ``num_jobs`` is split across tenants in proportion to their declared
    ``rate`` (tenants without one share the ``rate`` argument equally).
    Each tenant draws from its own ``random.Random(f"{seed}:{name}")``
    stream, so adding a tenant never perturbs another tenant's jobs.
    Tenants with a deadline policy get ``arrival + slack`` deadlines
    (their ``deadline_slack``, else the ``deadline_slack`` argument);
    ``diurnal=True`` swaps Poisson arrivals for the sinusoidal profile
    of :func:`diurnal_workload`.

    Example:
        >>> from repro.cluster.workload import TenantSpec, tenant_workload
        >>> fleet = tenant_workload(
        ...     [TenantSpec("prod", priority=1, deadline_policy="strict"),
        ...      TenantSpec("batch")], num_jobs=8, seed=0)
        >>> sorted(fleet.tenant_names)
        ['batch', 'prod']
    """
    if not tenants:
        raise ConfigurationError("tenant_workload needs at least one tenant")
    if num_jobs < 1:
        raise ConfigurationError("num_jobs must be >= 1")
    if not _finite_positive(rate):
        raise ConfigurationError(f"arrival rate must be finite and > 0, got {rate}")
    if not _finite_positive(deadline_slack):
        raise ConfigurationError(
            f"deadline_slack must be finite and > 0, got {deadline_slack}"
        )
    specs = tuple(tenants)
    default_rate = rate / len(specs)
    weights = [spec.rate if spec.rate is not None else default_rate for spec in specs]
    total_weight = left_sum(weights)

    # Largest-remainder split of num_jobs proportional to arrival rates.
    shares = [num_jobs * weight / total_weight for weight in weights]
    counts = [int(share) for share in shares]
    remainders = sorted(
        range(len(specs)), key=lambda i: (counts[i] - shares[i], specs[i].name)
    )
    for index in remainders[: num_jobs - left_sum(counts)]:
        counts[index] += 1

    jobs = []
    for spec, tenant_rate, count in zip(specs, weights, counts):
        if count == 0:
            continue
        rng = random.Random(f"{seed}:{spec.name}")
        mix = (mixes or {}).get(spec.name, DEFAULT_MIX)
        if diurnal:
            arrivals = _diurnal_arrivals(
                rng, count, tenant_rate * 0.25, tenant_rate * 2.0, period
            )
        else:
            arrivals = []
            now = 0.0
            for _ in range(count):
                now += rng.expovariate(tenant_rate)
                arrivals.append(now)
        slack = spec.deadline_slack if spec.deadline_slack is not None else deadline_slack
        for index, arrival in enumerate(arrivals):
            job = mix.sample(rng, job_id=f"{spec.name}-{index:04d}", arrival_time=arrival)
            jobs.append(
                replace(
                    job,
                    tenant=spec.name,
                    deadline=arrival + slack if spec.has_deadlines else None,
                )
            )
    jobs.sort(key=lambda job: (job.arrival_time, job.job_id))
    return Workload(
        name=name
        or f"tenants({'+'.join(spec.name for spec in specs)}, n={num_jobs}, seed={seed})",
        jobs=tuple(jobs),
        tenants=specs,
    )


def arrival_process(
    kind: str,
    num_jobs: int,
    *,
    rate: float = 0.05,
    burst_size: int = 8,
    burst_gap: float = 120.0,
    seed: int = 0,
    mix: JobMix = DEFAULT_MIX,
) -> Workload:
    """Build a workload by arrival-process name.

    ``"poisson"``, ``"bursty"`` and ``"diurnal"`` are understood; the
    diurnal profile swings between ``rate / 4`` and ``2 * rate``.

    Example:
        >>> from repro.cluster.workload import arrival_process
        >>> len(arrival_process("bursty", 4, burst_size=2, seed=0))
        4
    """
    if kind == "poisson":
        return poisson_workload(num_jobs, rate=rate, seed=seed, mix=mix)
    if kind == "bursty":
        return bursty_workload(
            num_jobs, burst_size=burst_size, burst_gap=burst_gap, seed=seed, mix=mix
        )
    if kind == "diurnal":
        return diurnal_workload(
            num_jobs, base_rate=rate * 0.25, peak_rate=rate * 2.0, seed=seed, mix=mix
        )
    raise ConfigurationError(
        f"unknown arrival process {kind!r}; known: 'poisson', 'bursty', 'diurnal'"
    )
