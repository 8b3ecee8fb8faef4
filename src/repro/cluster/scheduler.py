"""Gang-scheduling placement policies and their registry.

A placement policy answers one question, repeatedly: *given the queue and
the free GPUs per node, which job starts next, and where?*  Jobs are gangs —
all ``job.gpus`` GPUs must come from a single node (the strategies being
scheduled are single-server pipelines), so a policy returns at most one
``(job, node)`` pair per call and the simulator re-asks until the answer is
``None``.

Policies are pluggable through :data:`POLICIES`, a registry mirroring
:data:`repro.parallel.registry.REGISTRY` — register a custom policy with
:func:`register_policy` and every simulator, benchmark and CLI entry point
can use it by name.  Three built-ins cover the classic trade-offs:

* ``"fifo"`` — strict FIFO with first-fit placement; the head of the queue
  blocks everything behind it (no backfill), the fairness baseline.
* ``"best-fit"`` — earliest *placeable* job on the node that leaves the
  fewest GPUs stranded; trades head-of-line fairness for packing.
* ``"sjf"`` — shortest job first by profile-estimated service time, placed
  first-fit; minimises mean wait at the cost of starving long jobs.

Three more are *tenant-aware* (``tenant_aware = True``): they accept an
optional :class:`SchedulingContext` carrying tenant specs, live GPU usage
and fair-share deficits, and all three (``preempts = True``) rank jobs
by :meth:`urgency` so the simulator can evict strictly-less-urgent gangs
on their behalf:

* ``"priority"`` — highest tenant priority first (ties: arrival), with
  backfill; may preempt lower-priority gangs.
* ``"fair-share"`` — deficit-weighted round robin: the tenant furthest
  below its entitled GPU share places first; work-conserving, but may
  evict gangs of strictly less-owed tenants when backfill starves it.
* ``"deadline-aware"`` — earliest deadline first (deadline-free jobs
  last), with backfill; may preempt gangs with later deadlines.

sjf, priority and deadline-aware declare their order as ``rank_key(job,
estimate, context)``, which reads only what stays fixed for a run (job
fields, tenant specs, the memoised estimate).  The simulator then ranks
each job once, when it enters the queue, and hands ``place`` a
:class:`RankedQueue` instead of letting it sort on every decision.  For
priority and deadline-aware that order is also the preemption scan's
(most urgent first, ties by arrival then job id), so the scan walks their
ranked queue as it stands.

Documented in ``docs/API.md`` (cluster layer), ``docs/ARCHITECTURE.md``
(the registries) and ``docs/TENANTS.md`` (multi-tenancy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.cluster.workload import JobSpec, TenantSpec
from repro.errors import ConfigurationError
from repro.registry import NamedRegistry, make_register


@dataclass(frozen=True)
class Placement:
    """One placement decision: start ``job_id``'s gang on ``node`` now.

    Example:
        >>> from repro.cluster.scheduler import Placement
        >>> Placement(job_id="job-0001", node="a6000-0").node
        'a6000-0'
    """

    job_id: str
    node: str


#: Estimator handed to policies: seconds of service time for a queued job.
ServiceEstimator = Callable[[JobSpec], float]


@dataclass(frozen=True)
class SchedulingContext:
    """Fleet state handed to tenant-aware policies at each drain instant.

    ``tenants`` maps declared tenant names to their specs, ``usage_gpus``
    is each tenant's currently-held GPU count, and ``deficits`` is the
    fair-share ledger: entitled GPU-seconds so far minus consumed (a
    positive deficit means the tenant is owed capacity).  The simulator
    computes the deficits on first read, so a policy reads them during the
    call it is given the context in; once the fleet has changed, a read
    raises :class:`~repro.errors.ClusterError`.

    Example:
        >>> from repro.cluster.scheduler import SchedulingContext
        >>> from repro.cluster.workload import JobSpec, TenantSpec
        >>> context = SchedulingContext(
        ...     now=5.0, tenants={"prod": TenantSpec("prod", priority=2)})
        >>> job = JobSpec(job_id="j0", arrival_time=0.0, gpus=1, tenant="prod")
        >>> context.priority(job)
        2
    """

    now: float = 0.0
    tenants: Mapping[str, TenantSpec] = field(default_factory=dict)
    usage_gpus: Mapping[str, int] = field(default_factory=dict)
    deficits: Mapping[str, float] = field(default_factory=dict)

    def priority(self, job: JobSpec) -> int:
        """The job's tenant priority (0 for undeclared tenants)."""
        spec = self.tenants.get(job.tenant)
        return spec.priority if spec is not None else 0

    def deficit(self, tenant: str) -> float:
        """How many GPU-seconds the tenant is owed (0.0 when untracked)."""
        return self.deficits.get(tenant, 0.0)


@runtime_checkable
class PlacementPolicy(Protocol):
    """A pluggable gang-placement policy.

    ``place`` receives the pending queue in arrival order, the free GPU
    count per node (in cluster order), and a service-time estimator; it
    returns the next placement or ``None`` when nothing may start.  A
    policy that also declares ``rank_key`` receives the queue as a
    :class:`RankedQueue` in that order instead.
    """

    name: str

    def place(
        self,
        pending: Sequence[JobSpec],
        free_gpus: Mapping[str, int],
        estimate: ServiceEstimator,
    ) -> Optional[Placement]:
        """Pick the next job to start, or ``None`` to wait for an event."""
        ...


class PolicyRegistry(NamedRegistry[PlacementPolicy]):
    """Ordered name -> :class:`PlacementPolicy` mapping with validation."""

    kind = "placement policy"
    kind_plural = "policies"

    def validate(self, name: str, policy: PlacementPolicy) -> None:
        if not callable(getattr(policy, "place", None)):
            raise ConfigurationError(f"policy {name!r} must expose a callable 'place'")


#: The process-wide placement-policy registry.
POLICIES = PolicyRegistry()


#: Register a policy class or instance (usable as a decorator); see
#: :func:`repro.registry.make_register`.
register_policy = make_register(POLICIES)


class RankedQueue(tuple):
    """Pending jobs already in ``ranked_by.rank_key`` order (ties: enqueue order).

    The simulator builds this view for a policy that declares ``rank_key``;
    :func:`in_rank_order` passes it through unsorted, while a plain
    sequence from any other caller is sorted.

    Example:
        >>> from repro.cluster.scheduler import POLICIES, RankedQueue
        >>> RankedQueue((), POLICIES.get("sjf")).ranked_by.name
        'sjf'
    """

    def __new__(cls, jobs: Iterable[JobSpec], ranked_by: object) -> "RankedQueue":
        view = super().__new__(cls, jobs)
        view.ranked_by = ranked_by
        return view


def in_rank_order(
    policy,
    pending: Sequence[JobSpec],
    estimate: ServiceEstimator,
    context: Optional[SchedulingContext] = None,
) -> Sequence[JobSpec]:
    """``pending`` in ``policy.rank_key`` order, sorting only if not ranked yet.

    The sort is stable, so a queue given in arrival order breaks rank ties
    by arrival, exactly as the simulator's ranked queue does.

    Example:
        >>> from repro.cluster.scheduler import POLICIES, in_rank_order
        >>> from repro.cluster.workload import JobSpec
        >>> jobs = [JobSpec(job_id=f"j{index}", arrival_time=0.0, gpus=1,
        ...                 deadline=deadline, simulated_steps=4)
        ...         for index, deadline in enumerate((None, 50.0))]
        >>> policy = POLICIES.get("deadline-aware")
        >>> [job.job_id for job in in_rank_order(policy, jobs, None)]
        ['j1', 'j0']
    """
    if isinstance(pending, RankedQueue) and pending.ranked_by is policy:
        return pending
    return sorted(pending, key=lambda job: policy.rank_key(job, estimate, context))


# ---------------------------------------------------------------------- #
# Placement helpers
# ---------------------------------------------------------------------- #
def first_fit_node(job: JobSpec, free_gpus: Mapping[str, int]) -> Optional[str]:
    """First node (cluster order) with enough free GPUs for the gang.

    Example:
        >>> from repro.cluster.scheduler import first_fit_node
        >>> from repro.cluster.workload import JobSpec
        >>> job = JobSpec(job_id="j0", arrival_time=0.0, gpus=4,
        ...               simulated_steps=4)
        >>> first_fit_node(job, {"small": 2, "big": 4})
        'big'
    """
    for node, free in free_gpus.items():
        if free >= job.gpus:
            return node
    return None


def best_fit_node(job: JobSpec, free_gpus: Mapping[str, int]) -> Optional[str]:
    """Fitting node leaving the fewest GPUs stranded (ties: cluster order).

    Example:
        >>> from repro.cluster.scheduler import best_fit_node
        >>> from repro.cluster.workload import JobSpec
        >>> job = JobSpec(job_id="j0", arrival_time=0.0, gpus=2,
        ...               simulated_steps=4)
        >>> best_fit_node(job, {"roomy": 4, "snug": 2})
        'snug'
    """
    best: Optional[str] = None
    best_leftover: Optional[int] = None
    for node, free in free_gpus.items():
        if free < job.gpus:
            continue
        leftover = free - job.gpus
        if best_leftover is None or leftover < best_leftover:
            best, best_leftover = node, leftover
    return best


def place_in_order(
    ranked: Iterable[JobSpec],
    free_gpus: Mapping[str, int],
    fit: Callable[[JobSpec, Mapping[str, int]], Optional[str]] = first_fit_node,
) -> Optional[Placement]:
    """Place the first job of ``ranked`` that ``fit`` finds a node for.

    The widest free node is computed once, so gangs that fit nowhere are
    skipped without a node scan, and with no free GPU at all (every gang
    needs at least one) nothing is scanned.

    Example:
        >>> from repro.cluster.scheduler import place_in_order
        >>> from repro.cluster.workload import JobSpec
        >>> jobs = [JobSpec(job_id=f"j{gpus}", arrival_time=0.0, gpus=gpus,
        ...                 simulated_steps=4) for gpus in (8, 2)]
        >>> place_in_order(jobs, {"small": 2, "big": 4}).job_id
        'j2'
    """
    widest = max(free_gpus.values(), default=0)
    if widest < 1:
        return None
    for job in ranked:
        if job.gpus > widest:
            continue
        node = fit(job, free_gpus)
        if node is not None:
            return Placement(job_id=job.job_id, node=node)
    return None


# ---------------------------------------------------------------------- #
# Built-in policies
# ---------------------------------------------------------------------- #
@register_policy
class FIFOFirstFit:
    """Strict FIFO, first-fit placement, no backfill."""

    name = "fifo"

    def place(self, pending, free_gpus, estimate) -> Optional[Placement]:
        if not pending:
            return None
        head = pending[0]
        node = first_fit_node(head, free_gpus)
        if node is None:
            return None
        return Placement(job_id=head.job_id, node=node)


@register_policy
class BestFitPacking:
    """Earliest placeable job on the tightest-fitting node (skips blockers)."""

    name = "best-fit"

    def place(self, pending, free_gpus, estimate) -> Optional[Placement]:
        return place_in_order(pending, free_gpus, best_fit_node)


@register_policy
class ShortestJobFirst:
    """Shortest estimated service time first, first-fit placement.

    Estimates come from the simulator's profile-backed service-time model,
    so the ordering reflects real (simulated) epoch times, not job metadata.
    Ties break on arrival order, then job id, keeping runs deterministic.
    """

    name = "sjf"

    def rank_key(self, job, estimate, context=None):
        return (estimate(job), job.arrival_time, job.job_id)

    def place(self, pending, free_gpus, estimate) -> Optional[Placement]:
        return place_in_order(in_rank_order(self, pending, estimate), free_gpus)


# ---------------------------------------------------------------------- #
# Tenant-aware policies (multi-tenancy; see docs/TENANTS.md)
# ---------------------------------------------------------------------- #
@register_policy
class PriorityFirstFit:
    """Highest tenant priority first, first-fit, with backfill.

    ``urgency`` is the tenant priority, so the simulator may evict gangs
    of strictly lower-priority tenants to start a starved high-priority
    job.  Ties break on arrival order then job id.
    """

    name = "priority"
    tenant_aware = True
    preempts = True

    def urgency(self, job, context: Optional[SchedulingContext]) -> float:
        return float(context.priority(job)) if context is not None else 0.0

    def rank_key(self, job, estimate, context: Optional[SchedulingContext] = None):
        # The negated urgency, read from the tenant spec itself: urgency
        # calls stay the preemption scan's own.
        priority = context.priority(job) if context is not None else 0
        return (-float(priority), job.arrival_time, job.job_id)

    def place(
        self, pending, free_gpus, estimate, context: Optional[SchedulingContext] = None
    ) -> Optional[Placement]:
        return place_in_order(in_rank_order(self, pending, estimate, context), free_gpus)


@register_policy
class DeficitFairShare:
    """Deficit-weighted fair share across tenants, work-conserving.

    Tenants are ranked by fair-share deficit (entitled minus consumed
    GPU-seconds, largest owed first; ties break on name), and the
    front-ranked tenant's earliest placeable job starts.  If nothing of
    that tenant's fits, the next tenant is tried — the policy never
    idles GPUs to enforce fairness, it only re-orders access.

    ``urgency`` is the tenant's deficit, so when backfill fragments the
    fleet and starves a tenant that is owed capacity, the simulator may
    evict gangs of strictly less-owed tenants.  Deficits are evaluated
    once per drain instant, so eviction cannot flip the ordering
    mid-drain.
    """

    name = "fair-share"
    tenant_aware = True
    preempts = True

    def urgency(self, job, context: Optional[SchedulingContext]) -> float:
        return context.deficit(job.tenant) if context is not None else 0.0

    def place(
        self, pending, free_gpus, estimate, context: Optional[SchedulingContext] = None
    ) -> Optional[Placement]:
        widest = max(free_gpus.values(), default=0)
        if widest < 1:
            return None
        # A gang no wider than the widest free node always fits there, so
        # each tenant's candidate is its first such gang in queue order: one
        # pass finds them, and the most-owed tenant's candidate starts.
        heads: Dict[str, JobSpec] = {}
        for job in pending:
            if job.gpus <= widest and job.tenant not in heads:
                heads[job.tenant] = job
        if not heads:
            return None
        deficit = context.deficit if context is not None else (lambda tenant: 0.0)
        job = heads[min(heads, key=lambda tenant: (-deficit(tenant), tenant))]
        return Placement(job_id=job.job_id, node=first_fit_node(job, free_gpus))


@register_policy
class DeadlineAware:
    """Earliest deadline first (EDF), first-fit, with backfill.

    Jobs without deadlines sort last (after every deadline-carrying
    job).  ``urgency`` is the negated deadline, so the simulator may
    evict a gang with a later deadline — or none — to start a job whose
    deadline is closing.
    """

    name = "deadline-aware"
    tenant_aware = True
    preempts = True

    def urgency(self, job, context: Optional[SchedulingContext]) -> float:
        return -job.deadline if job.deadline is not None else -math.inf

    def rank_key(self, job, estimate, context: Optional[SchedulingContext] = None):
        deadline = job.deadline if job.deadline is not None else math.inf
        return (deadline, job.arrival_time, job.job_id)

    def place(
        self, pending, free_gpus, estimate, context: Optional[SchedulingContext] = None
    ) -> Optional[Placement]:
        return place_in_order(in_rank_order(self, pending, estimate, context), free_gpus)
