"""Fleet-level analytics over cluster simulation runs.

The cluster simulator reduces a run to :class:`JobRecord` rows (one per
completed job); everything here derives the queueing-level quantities a
fleet operator reads — makespan, queue-wait distribution, GPU utilization,
throughput — and formats per-policy comparison tables.  The module is pure
data + arithmetic: it never imports the simulator, so reports parsed back
from JSON are first-class citizens.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.reporting import format_seconds, format_table
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class JobRecord:
    """One completed job: where it ran, when, and what faults cost it.

    The reliability fields default to "nothing happened": ``preemptions``
    counts interruptions (faults or voluntary preemption), ``gpu_seconds``
    the actual GPU-time occupied across every attempt (``None`` in plain
    runs, meaning ``gpus * service_time``), ``wasted_gpu_seconds`` the slice
    destroyed by lost work and recovery overheads, ``recovery_seconds`` the
    total time spent between an eviction and the next start, and
    ``final_gpus`` the gang size the job *finished* on (elastic ``shrink``
    makes it smaller than ``gpus``).
    """

    job_id: str
    node: str
    gpus: int
    strategy: str
    cell: str
    arrival_time: float
    start_time: float
    finish_time: float
    preemptions: int = 0
    gpu_seconds: Optional[float] = None
    wasted_gpu_seconds: float = 0.0
    recovery_seconds: float = 0.0
    final_gpus: Optional[int] = None
    tenant: str = "default"
    deadline: Optional[float] = None
    cost_usd: Optional[float] = None

    def __post_init__(self) -> None:
        if self.start_time < self.arrival_time:
            raise ConfigurationError(
                f"job {self.job_id!r} started before it arrived"
            )
        if self.finish_time < self.start_time:
            raise ConfigurationError(
                f"job {self.job_id!r} finished before it started"
            )
        if self.preemptions < 0:
            raise ConfigurationError(
                f"job {self.job_id!r} has a negative preemption count"
            )
        if self.wasted_gpu_seconds < 0 or self.recovery_seconds < 0:
            raise ConfigurationError(
                f"job {self.job_id!r} has negative reliability accounting"
            )

    @property
    def wait_time(self) -> float:
        """Seconds spent queued before the gang was first placed."""
        return self.start_time - self.arrival_time

    @property
    def service_time(self) -> float:
        """Seconds from first placement to completion (recovery included)."""
        return self.finish_time - self.start_time

    @property
    def effective_gpu_seconds(self) -> float:
        """GPU-seconds actually occupied (fault-free runs derive it)."""
        if self.gpu_seconds is not None:
            return self.gpu_seconds
        return self.gpus * self.service_time

    @property
    def useful_gpu_seconds(self) -> float:
        """Occupied GPU-seconds minus the slice faults destroyed."""
        return max(0.0, self.effective_gpu_seconds - self.wasted_gpu_seconds)

    @property
    def slowdown(self) -> float:
        """Turnaround over service time (>= 1; queueing inflates it)."""
        return (self.wait_time + self.service_time) / max(self.service_time, 1e-9)

    @property
    def met_deadline(self) -> Optional[bool]:
        """Whether the job beat its deadline (``None`` when it has none)."""
        if self.deadline is None:
            return None
        return self.finish_time <= self.deadline

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "node": self.node,
            "gpus": self.gpus,
            "strategy": self.strategy,
            "cell": self.cell,
            "arrival_time": self.arrival_time,
            "start_time": self.start_time,
            "finish_time": self.finish_time,
            "wait_time": self.wait_time,
            "service_time": self.service_time,
            "preemptions": self.preemptions,
            # Coerced to float so a fresh report and its JSON round-trip
            # render byte-identically even when a counter happens to be an
            # exact integer sum.
            "gpu_seconds": (
                float(self.gpu_seconds) if self.gpu_seconds is not None else None
            ),
            "wasted_gpu_seconds": float(self.wasted_gpu_seconds),
            "recovery_seconds": float(self.recovery_seconds),
            "final_gpus": self.final_gpus,
            "tenant": self.tenant,
            "deadline": self.deadline,
            "cost_usd": (float(self.cost_usd) if self.cost_usd is not None else None),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRecord":
        gpu_seconds = payload.get("gpu_seconds")
        final_gpus = payload.get("final_gpus")
        return cls(
            job_id=payload["job_id"],
            node=payload["node"],
            gpus=int(payload["gpus"]),
            strategy=payload["strategy"],
            cell=payload.get("cell", ""),
            arrival_time=float(payload["arrival_time"]),
            start_time=float(payload["start_time"]),
            finish_time=float(payload["finish_time"]),
            preemptions=int(payload.get("preemptions", 0)),
            gpu_seconds=(float(gpu_seconds) if gpu_seconds is not None else None),
            wasted_gpu_seconds=float(payload.get("wasted_gpu_seconds", 0.0)),
            recovery_seconds=float(payload.get("recovery_seconds", 0.0)),
            final_gpus=(int(final_gpus) if final_gpus is not None else None),
            tenant=payload.get("tenant", "default"),
            deadline=(
                float(payload["deadline"]) if payload.get("deadline") is not None else None
            ),
            cost_usd=(
                float(payload["cost_usd"]) if payload.get("cost_usd") is not None else None
            ),
        )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    if not values:
        raise ConfigurationError("percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ConfigurationError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if q == 0:
        return ordered[0]
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


@dataclass(frozen=True)
class ClusterReport:
    """Aggregated outcome of serving one workload under one policy.

    The reliability fields stay empty for plain runs (no faults, tenants,
    deadlines or price curve).  ``fault_events`` (the injected trace, as
    dicts) and ``elastic_policy`` (the recovery policy that handled
    evictions) are set only when faults are injected.  ``recoveries`` (one
    duration per eviction-to-restart gap, feeding the p95) and ``killed``
    (one dict per job the fleet could never host) are filled by tenant and
    priced runs too: voluntary preemption restarts gangs, and a gang larger
    than its tenant's quota is killed.
    """

    policy: str
    cluster_name: str
    workload_name: str
    node_gpus: Dict[str, int] = field(default_factory=dict)
    records: Tuple[JobRecord, ...] = ()
    fault_events: Tuple[dict, ...] = ()
    fault_trace_name: Optional[str] = None
    elastic_policy: Optional[str] = None
    recoveries: Tuple[float, ...] = ()
    killed: Tuple[dict, ...] = ()
    #: Exact per-node GPU-seconds occupied, populated by every non-plain run
    #: (a job's attempts may span several nodes after restart/migrate);
    #: empty for plain runs, whose records are single-node by construction.
    node_busy_gpu_seconds: Dict[str, float] = field(default_factory=dict)
    #: Declared tenant specs (as dicts) and the price curve name, populated
    #: by multi-tenant / spot-priced runs.
    tenants: Tuple[dict, ...] = ()
    price_curve: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Scalar metrics
    # ------------------------------------------------------------------ #
    @property
    def num_jobs(self) -> int:
        return len(self.records)

    @property
    def total_gpus(self) -> int:
        return sum(self.node_gpus.values())

    @property
    def makespan(self) -> float:
        """Seconds from t=0 until the last job finishes."""
        return max((record.finish_time for record in self.records), default=0.0)

    @property
    def mean_wait(self) -> float:
        if not self.records:
            return 0.0
        return sum(record.wait_time for record in self.records) / len(self.records)

    @property
    def p95_wait(self) -> float:
        if not self.records:
            return 0.0
        return percentile([record.wait_time for record in self.records], 95)

    @property
    def max_wait(self) -> float:
        return max((record.wait_time for record in self.records), default=0.0)

    @property
    def mean_service(self) -> float:
        if not self.records:
            return 0.0
        return sum(record.service_time for record in self.records) / len(self.records)

    def _node_capacity_gpu_seconds(self) -> Dict[str, float]:
        """Per-node live-capacity integral over the makespan.

        Crash faults remove GPUs *permanently*, so a degraded fleet's
        denominator is not ``gpus * makespan``: each crash subtracts the
        removed GPUs for the remainder of the run.  Crash events replay in
        time order with per-node clamping (a crash cannot remove more than
        the node still has), mirroring the simulator's capacity ledger.
        """
        makespan = self.makespan
        capacity = {node: float(gpus * makespan) for node, gpus in self.node_gpus.items()}
        if makespan <= 0:
            return capacity
        live = dict(self.node_gpus)
        for event in self.fault_events:
            if event.get("kind") != "crash":
                continue
            node = event.get("node")
            if node not in live:
                continue
            when = float(event.get("time", 0.0))
            amount = event.get("gpus")
            removed = live[node] if amount is None else min(int(amount), live[node])
            live[node] -= removed
            capacity[node] -= removed * max(0.0, makespan - when)
        return capacity

    @property
    def capacity_gpu_seconds(self) -> float:
        """Fleet GPU-seconds actually available (crash-adjusted)."""
        return sum(self._node_capacity_gpu_seconds().values())

    @property
    def gpu_utilization(self) -> float:
        """Busy GPU-seconds over the fleet GPU-seconds actually available.

        The denominator is the live-capacity integral, so a fleet that
        permanently loses GPUs to crashes is scored against what remained,
        not against hardware that no longer exists.
        """
        capacity = self.capacity_gpu_seconds
        if capacity <= 0:
            return 0.0
        busy = sum(record.effective_gpu_seconds for record in self.records)
        return busy / capacity

    @property
    def jobs_per_hour(self) -> float:
        makespan = self.makespan
        if makespan <= 0:
            return 0.0
        return self.num_jobs / makespan * 3600.0

    # ------------------------------------------------------------------ #
    # Reliability analytics (all zero / empty for plain runs)
    # ------------------------------------------------------------------ #
    @property
    def faults_injected(self) -> int:
        """How many fault events the run replayed."""
        return len(self.fault_events)

    @property
    def jobs_killed(self) -> int:
        """Jobs the degraded fleet could never host again."""
        return len(self.killed)

    @property
    def interruptions(self) -> int:
        """Fault-driven evictions across completed *and* killed jobs."""
        completed = sum(record.preemptions for record in self.records)
        lost = sum(int(entry.get("preemptions", 0)) for entry in self.killed)
        return completed + lost

    @property
    def wasted_gpu_hours(self) -> float:
        """GPU-hours destroyed by lost work, overheads and killed jobs."""
        wasted = sum(record.wasted_gpu_seconds for record in self.records)
        # A killed job's entire occupancy was wasted — it never finished.
        wasted += sum(float(entry.get("gpu_seconds", 0.0)) for entry in self.killed)
        return wasted / 3600.0

    @property
    def recovery_p95(self) -> float:
        """95th-percentile eviction-to-restart gap in seconds."""
        if not self.recoveries:
            return 0.0
        return percentile(list(self.recoveries), 95)

    @property
    def goodput(self) -> float:
        """Useful (non-wasted) GPU-seconds over fleet GPU-seconds.

        Equals :attr:`gpu_utilization` for fault-free runs; under faults
        the gap between the two is exactly the fleet's recovery tax.
        """
        capacity = self.capacity_gpu_seconds
        if capacity <= 0:
            return 0.0
        useful = sum(record.useful_gpu_seconds for record in self.records)
        return useful / capacity

    # ------------------------------------------------------------------ #
    # SLO analytics (multi-tenancy; trivially satisfied without tenants)
    # ------------------------------------------------------------------ #
    @property
    def deadline_hit_rate(self) -> float:
        """Fraction of deadline-carrying jobs that finished in time.

        Killed jobs with deadlines count as misses; a workload with no
        deadlines scores a vacuous 1.0.
        """
        hits = 0
        total = 0
        for record in self.records:
            met = record.met_deadline
            if met is None:
                continue
            total += 1
            hits += int(met)
        for entry in self.killed:
            if entry.get("deadline") is not None:
                total += 1
        if total == 0:
            return 1.0
        return hits / total

    @property
    def fairness_index(self) -> float:
        """Jain's fairness index over per-tenant mean slowdowns.

        Each tenant's allocation is the reciprocal of its mean job
        slowdown (fast turnaround = large allocation); Jain's index
        ``(Σx)² / (n·Σx²)`` is 1.0 when every tenant sees the same
        slowdown and approaches ``1/n`` as one tenant monopolises the
        fleet.  Always within [0, 1]; vacuously 1.0 with at most one
        tenant represented in the records.
        """
        by_tenant: Dict[str, List[float]] = {}
        for record in self.records:
            by_tenant.setdefault(record.tenant, []).append(record.slowdown)
        if len(by_tenant) <= 1:
            return 1.0
        allocations = [
            1.0 / max(sum(slowdowns) / len(slowdowns), 1e-9)
            for slowdowns in by_tenant.values()
        ]
        square_of_sum = sum(allocations) ** 2
        sum_of_squares = sum(x * x for x in allocations)
        if sum_of_squares <= 0:
            return 1.0
        return square_of_sum / (len(allocations) * sum_of_squares)

    @property
    def total_cost_usd(self) -> float:
        """Spot-priced USD across completed and killed jobs (0 if unpriced)."""
        total = sum(
            record.cost_usd for record in self.records if record.cost_usd is not None
        )
        total += sum(
            float(entry["cost_usd"])
            for entry in self.killed
            if entry.get("cost_usd") is not None
        )
        return total

    @property
    def cost_per_job(self) -> float:
        """USD per *completed* job; killed jobs' spend is in the numerator."""
        if not self.records:
            return 0.0
        return self.total_cost_usd / len(self.records)

    def per_tenant(self) -> Dict[str, dict]:
        """Per-tenant SLO breakdown (declared tenants always present)."""
        names = [spec["name"] for spec in self.tenants]
        for record in self.records:
            if record.tenant not in names:
                names.append(record.tenant)
        for entry in self.killed:
            tenant = entry.get("tenant", "default")
            if tenant not in names:
                names.append(tenant)
        breakdown: Dict[str, dict] = {}
        for name in names:
            records = [record for record in self.records if record.tenant == name]
            killed = [
                entry for entry in self.killed if entry.get("tenant", "default") == name
            ]
            count = len(records)
            with_deadline = [r for r in records if r.met_deadline is not None]
            deadline_total = len(with_deadline) + sum(
                1 for entry in killed if entry.get("deadline") is not None
            )
            hits = sum(1 for r in with_deadline if r.met_deadline)
            cost = sum(r.cost_usd for r in records if r.cost_usd is not None)
            cost += sum(
                float(entry["cost_usd"])
                for entry in killed
                if entry.get("cost_usd") is not None
            )
            breakdown[name] = {
                "jobs": count,
                "killed": len(killed),
                "mean_wait_s": (
                    sum(r.wait_time for r in records) / count if count else 0.0
                ),
                "mean_slowdown": (
                    sum(r.slowdown for r in records) / count if count else 0.0
                ),
                "gpu_seconds": sum(r.effective_gpu_seconds for r in records),
                "useful_gpu_seconds": sum(r.useful_gpu_seconds for r in records),
                "deadline_hit_rate": (
                    hits / deadline_total if deadline_total else 1.0
                ),
                "cost_usd": cost,
            }
        return breakdown

    @property
    def goodput_jobs_per_hour(self) -> float:
        """Completed-job throughput, discounted by the wasted-work share.

        The tune objective ``goodput_under_faults`` maximises this: it
        rewards finishing jobs fast *and* not burning GPU-hours on work a
        fault destroys.
        """
        makespan = self.makespan
        if makespan <= 0:
            return 0.0
        occupied = sum(record.effective_gpu_seconds for record in self.records)
        occupied += sum(float(entry.get("gpu_seconds", 0.0)) for entry in self.killed)
        if occupied <= 0:
            return self.jobs_per_hour
        useful = sum(record.useful_gpu_seconds for record in self.records)
        return self.jobs_per_hour * (useful / occupied)

    # ------------------------------------------------------------------ #
    # Per-dimension breakdowns
    # ------------------------------------------------------------------ #
    def per_node_utilization(self) -> Dict[str, float]:
        """Busy fraction of every node's GPUs over the makespan.

        Fault runs provide exact per-node occupancy via
        ``node_busy_gpu_seconds`` (a restarted or migrated job occupies
        several nodes across its attempts); fault-free runs derive it from
        the records, whose single attempt ran entirely on ``record.node``.
        Denominators are the per-node live-capacity integrals, so crashed
        GPUs stop counting against the node from the moment they die.
        """
        busy: Dict[str, float] = {node: 0.0 for node in self.node_gpus}
        if self.node_busy_gpu_seconds:
            busy.update(self.node_busy_gpu_seconds)
        else:
            for record in self.records:
                busy[record.node] = (
                    busy.get(record.node, 0.0) + record.effective_gpu_seconds
                )
        capacity = self._node_capacity_gpu_seconds()
        return {
            node: (busy.get(node, 0.0) / capacity[node] if capacity[node] > 0 else 0.0)
            for node in self.node_gpus
        }

    def per_node_jobs(self) -> Dict[str, int]:
        counts: Dict[str, int] = {node: 0 for node in self.node_gpus}
        for record in self.records:
            counts[record.node] = counts.get(record.node, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Scalar metrics only (the row a comparison table shows)."""
        return {
            "policy": self.policy,
            "cluster": self.cluster_name,
            "workload": self.workload_name,
            "num_jobs": self.num_jobs,
            "total_gpus": self.total_gpus,
            "makespan_s": self.makespan,
            "mean_wait_s": self.mean_wait,
            "p95_wait_s": self.p95_wait,
            "max_wait_s": self.max_wait,
            "mean_service_s": self.mean_service,
            "gpu_utilization": self.gpu_utilization,
            "jobs_per_hour": self.jobs_per_hour,
            "faults_injected": self.faults_injected,
            "jobs_killed": self.jobs_killed,
            "interruptions": self.interruptions,
            "wasted_gpu_hours": self.wasted_gpu_hours,
            "recovery_p95_s": self.recovery_p95,
            "goodput": self.goodput,
            "goodput_jobs_per_hour": self.goodput_jobs_per_hour,
            "elastic_policy": self.elastic_policy,
            "deadline_hit_rate": self.deadline_hit_rate,
            "fairness_index": self.fairness_index,
            "total_cost_usd": self.total_cost_usd,
            "cost_per_job": self.cost_per_job,
        }

    def to_dict(self) -> dict:
        payload = self.summary()
        payload["node_gpus"] = dict(self.node_gpus)
        payload["per_node_utilization"] = self.per_node_utilization()
        payload["records"] = [record.to_dict() for record in self.records]
        payload["fault_trace"] = self.fault_trace_name
        payload["fault_events"] = [dict(event) for event in self.fault_events]
        payload["recoveries"] = list(self.recoveries)
        payload["killed"] = [dict(entry) for entry in self.killed]
        payload["node_busy_gpu_seconds"] = {
            node: float(seconds)
            for node, seconds in self.node_busy_gpu_seconds.items()
        }
        payload["tenants"] = [dict(spec) for spec in self.tenants]
        payload["price_curve"] = self.price_curve
        payload["per_tenant"] = self.per_tenant()
        return payload

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "ClusterReport":
        return cls(
            policy=payload["policy"],
            cluster_name=payload.get("cluster", ""),
            workload_name=payload.get("workload", ""),
            node_gpus={node: int(g) for node, g in payload.get("node_gpus", {}).items()},
            records=tuple(
                JobRecord.from_dict(record) for record in payload.get("records", ())
            ),
            fault_events=tuple(
                dict(event) for event in payload.get("fault_events", ())
            ),
            fault_trace_name=payload.get("fault_trace"),
            elastic_policy=payload.get("elastic_policy"),
            recoveries=tuple(float(r) for r in payload.get("recoveries", ())),
            killed=tuple(dict(entry) for entry in payload.get("killed", ())),
            node_busy_gpu_seconds={
                node: float(seconds)
                for node, seconds in payload.get("node_busy_gpu_seconds", {}).items()
            },
            tenants=tuple(dict(spec) for spec in payload.get("tenants", ())),
            price_curve=payload.get("price_curve"),
        )


# ---------------------------------------------------------------------- #
# Formatting
# ---------------------------------------------------------------------- #
def format_cluster_report(report: ClusterReport) -> str:
    """Multi-section text report for one policy run."""
    lines = [
        f"{report.policy} on {report.cluster_name} — {report.workload_name}",
        f"  jobs          : {report.num_jobs}",
        f"  makespan      : {format_seconds(report.makespan)}",
        f"  mean wait     : {format_seconds(report.mean_wait)}",
        f"  p95 wait      : {format_seconds(report.p95_wait)}",
        f"  GPU util      : {report.gpu_utilization * 100:.1f}%",
        f"  throughput    : {report.jobs_per_hour:.1f} jobs/hour",
    ]
    if report.faults_injected:
        lines.extend(
            [
                f"  faults        : {report.faults_injected} events "
                f"({report.fault_trace_name}), elastic={report.elastic_policy}",
                f"  interruptions : {report.interruptions} "
                f"({report.jobs_killed} jobs killed)",
                f"  goodput       : {report.goodput * 100:.1f}% "
                f"({report.goodput_jobs_per_hour:.1f} useful jobs/hour)",
                f"  wasted        : {report.wasted_gpu_hours:.2f} GPU-hours",
                f"  recovery p95  : {format_seconds(report.recovery_p95)}",
            ]
        )
    per_tenant = report.per_tenant()
    if report.tenants or len(per_tenant) > 1:
        lines.extend(
            [
                f"  deadline hits : {report.deadline_hit_rate * 100:.1f}%",
                f"  fairness      : {report.fairness_index:.3f} (Jain)",
                f"  cost          : ${report.total_cost_usd:.2f} total, "
                f"${report.cost_per_job:.2f}/job"
                + (f" ({report.price_curve} pricing)" if report.price_curve else ""),
            ]
        )
        tenant_rows = [
            [
                name,
                str(stats["jobs"]),
                str(stats["killed"]),
                format_seconds(stats["mean_wait_s"]),
                f"{stats['mean_slowdown']:.2f}x",
                f"{stats['deadline_hit_rate'] * 100:.0f}%",
                f"${stats['cost_usd']:.2f}",
            ]
            for name, stats in per_tenant.items()
        ]
        lines.append(
            format_table(
                ["tenant", "jobs", "killed", "mean wait", "slowdown", "ddl", "cost"],
                tenant_rows,
            )
        )
    utilization = report.per_node_utilization()
    jobs = report.per_node_jobs()
    node_rows = [
        [node, str(gpus), f"{utilization[node] * 100:.1f}%", str(jobs[node])]
        for node, gpus in report.node_gpus.items()
    ]
    lines.append(format_table(["node", "gpus", "util", "jobs"], node_rows))
    return "\n".join(lines)


def compare_policies(reports: Mapping[str, ClusterReport] | Sequence[ClusterReport]) -> str:
    """Side-by-side table of scalar metrics, one row per policy."""
    if isinstance(reports, Mapping):
        ordered = list(reports.values())
    else:
        ordered = list(reports)
    if not ordered:
        raise ConfigurationError("no reports to compare")
    has_faults = any(report.faults_injected for report in ordered)
    rows = []
    for report in ordered:
        row = [
            report.policy,
            format_seconds(report.makespan),
            format_seconds(report.mean_wait),
            format_seconds(report.p95_wait),
            f"{report.gpu_utilization * 100:.1f}%",
            f"{report.jobs_per_hour:.1f}",
        ]
        if has_faults:
            row.extend(
                [
                    f"{report.goodput * 100:.1f}%",
                    str(report.jobs_killed),
                    format_seconds(report.recovery_p95),
                ]
            )
        rows.append(row)
    headers = ["policy", "makespan", "mean wait", "p95 wait", "gpu util", "jobs/h"]
    if has_faults:
        headers.extend(["goodput", "killed", "rec p95"])
    title = (
        f"{ordered[0].num_jobs} jobs on {ordered[0].cluster_name} "
        f"({ordered[0].workload_name})"
    )
    return f"{title}\n{format_table(headers, rows)}"
