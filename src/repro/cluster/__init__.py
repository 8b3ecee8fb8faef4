"""Cluster layer: multi-job workloads gang-scheduled onto a simulated fleet.

Pipe-BD schedules blocks *within* one job on one server; this package adds
the queueing layer above it — heterogeneous fleets (:mod:`~repro.cluster.spec`),
deterministic multi-job workload generation and trace replay
(:mod:`~repro.cluster.workload`), pluggable gang-placement policies
(:mod:`~repro.cluster.scheduler`) and the event-driven fleet simulator
(:mod:`~repro.cluster.simulator`).  Faults and elasticity ride on top:
seeded fault models, JSON fault-trace replay and the checkpoint/restart
cost model (:mod:`~repro.cluster.faults`) plus pluggable elastic
rescheduling policies (:mod:`~repro.cluster.elastic`).  Multi-tenancy
adds tenant specs with quotas/priorities/deadline policies and tenant
workload generators (:mod:`~repro.cluster.workload`), tenant-aware
placement policies with voluntary preemption
(:mod:`~repro.cluster.scheduler`) and spot-market pricing
(:mod:`~repro.cluster.market`).  Fleet-level analytics live in
:mod:`repro.analysis.cluster_report`.

Documented in ``docs/API.md`` (cluster layer), ``docs/ARCHITECTURE.md``,
``docs/FAULTS.md`` and ``docs/TENANTS.md``.
"""

from repro.cluster.elastic import (
    ELASTIC_POLICIES,
    ElasticDecision,
    ReschedulePolicy,
    register_elastic_policy,
)
from repro.cluster.faults import (
    FAULT_PRESETS,
    FaultEvent,
    FaultModel,
    FaultTrace,
    RecoveryModel,
    parse_fault_spec,
    recovery_fraction,
    strategy_is_decoupled,
)
from repro.cluster.spec import (
    ClusterSpec,
    NodeSpec,
    cluster_from_shorthand,
    default_cluster,
)
from repro.cluster.market import (
    GPU_HOURLY_RATES,
    PRICE_CURVES,
    PriceCurve,
    gpu_cost,
    parse_price_curve,
)
from repro.cluster.workload import (
    DEFAULT_MIX,
    JobMix,
    JobSpec,
    TenantSpec,
    Workload,
    arrival_process,
    bursty_workload,
    diurnal_workload,
    parse_tenant_shorthand,
    poisson_workload,
    tenant_workload,
)
from repro.cluster.scheduler import (
    POLICIES,
    Placement,
    PlacementPolicy,
    PolicyRegistry,
    SchedulingContext,
    register_policy,
)
from repro.cluster.simulator import ClusterSimulator, run_policy_comparison

__all__ = [
    "ClusterSpec",
    "NodeSpec",
    "cluster_from_shorthand",
    "default_cluster",
    "DEFAULT_MIX",
    "JobMix",
    "JobSpec",
    "TenantSpec",
    "Workload",
    "arrival_process",
    "bursty_workload",
    "diurnal_workload",
    "parse_tenant_shorthand",
    "poisson_workload",
    "tenant_workload",
    "GPU_HOURLY_RATES",
    "PRICE_CURVES",
    "PriceCurve",
    "gpu_cost",
    "parse_price_curve",
    "POLICIES",
    "Placement",
    "PlacementPolicy",
    "PolicyRegistry",
    "SchedulingContext",
    "register_policy",
    "ClusterSimulator",
    "run_policy_comparison",
    "ELASTIC_POLICIES",
    "ElasticDecision",
    "ReschedulePolicy",
    "register_elastic_policy",
    "FAULT_PRESETS",
    "FaultEvent",
    "FaultModel",
    "FaultTrace",
    "RecoveryModel",
    "parse_fault_spec",
    "recovery_fraction",
    "strategy_is_decoupled",
]
