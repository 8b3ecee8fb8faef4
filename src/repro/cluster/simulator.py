"""The cluster event loop: admit, place, complete — and now survive — jobs.

:class:`ClusterSimulator` advances virtual time from event to event (job
arrivals, gang completions and, when a fault source is attached, crash /
preemption / straggler incidents), keeping a per-node free-GPU ledger and
re-consulting the placement policy after every event.  Two levels of reuse
make thousand-job fleets cheap:

* a shared :class:`~repro.core.session.Session` memoises pairs, server
  specs, datasets, executors and — crucially — profile tables across jobs,
  so the paper's one-off profiling pass is paid once per *cell*, not once
  per job;
* the simulator memoises *epoch times* by ``(cell, strategy, steps)``: two
  jobs landing the same experiment cell on the same node type trigger one
  discrete-event simulation, however many epochs each trains;
* when the session carries a persistent
  :class:`~repro.store.store.ExperimentStore`, the epoch-time memo fills
  from and writes through it (via ``Session.run``'s store path), so a
  restarted fleet replay performs zero discrete-event simulations — check
  ``session.stats.runs`` / ``session.stats.store_hits``.

Fault injection (``faults=``) replays a :class:`~repro.cluster.faults.FaultTrace`
— or materialises one from a seeded :class:`~repro.cluster.faults.FaultModel`
— as first-class events: crashes permanently remove GPUs, preemptions take
them away for a window, stragglers stretch a node's service times.  Evicted
gangs recover through a pluggable elastic policy
(:data:`~repro.cluster.elastic.ELASTIC_POLICIES`: ``restart`` / ``shrink`` /
``migrate``) and pay checkpoint/restart costs from a
:class:`~repro.cluster.faults.RecoveryModel` that knows decoupled
sub-pipelines (DPU/LS) lose less progress than synchronous gangs.

Multi-tenancy rides the same loop: workloads that declare
:class:`~repro.cluster.workload.TenantSpec` tenants (or carry job
deadlines, or run under a :class:`~repro.cluster.market.PriceCurve`) add
per-tenant GPU quotas, fair-share deficit tracking, *voluntary* preemption
on behalf of ``preempts = True`` policies (reusing the fault-eviction
machinery: interrupted gangs pay the same checkpoint losses and restart
costs), and spot-priced cost accounting per attempt.

One event loop serves every run.  A *plain* run — no fault trace, no
tenants, no job deadlines, no price curve — reports exactly what a gang
scheduler without attempts would: records in first-start order,
``gpu_seconds`` / ``final_gpus`` / ``cost_usd`` left ``None``, no
``node_busy_gpu_seconds``, and no voluntary preemption pass (nor a
:class:`SchedulingContext` for tenant-aware policies), so plain runs stay
cheap.  The plain-run goldens in ``tests/cluster/golden/`` pin this.

Determinism: workloads, fault models and the event loop are all seeded and
tie-broken by insertion order, so the same (workload, trace, policy) always
produces a bit-identical :class:`ClusterReport` — fault runs included.

Epoch-time memo audit (PR 5): the memo key deliberately carries *no*
placement-policy or fault context.  An epoch time is a property of the
experiment cell alone — ``JobSpec.epoch_key(server)`` is the config's
``cell_key()`` (task/dataset/server/gpus/batch) plus strategy and step
count — and is invariant under which policy chose
the node or which faults later hit it: straggler slowdowns scale *wall*
time at the event level (never the memoised nominal time), and elastic
``shrink`` re-partitions land in the memo under their actual smaller gang
(``num_gpus`` is part of the cell).  ``tests/cluster/test_simulator.py``
pins this with SessionStats: replaying a workload under every policy, and
under fault injection, adds zero discrete-event simulations.

Documented in ``docs/API.md`` (cluster layer), ``docs/ARCHITECTURE.md``
(data flow) and ``docs/FAULTS.md`` (failure semantics).
"""

from __future__ import annotations

import heapq
import itertools
import time
from bisect import bisect_left
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.cluster_report import ClusterReport, JobRecord
from repro.cluster.elastic import ELASTIC_POLICIES, ReschedulePolicy, resolve_elastic
from repro.cluster.faults import (
    FaultEvent,
    FaultModel,
    FaultTrace,
    RecoveryModel,
    resolve_faults,
)
from repro.cluster.market import PriceCurve, gpu_cost
from repro.cluster.scheduler import (
    POLICIES,
    DeadlineAware,
    Placement,
    PlacementPolicy,
    PriorityFirstFit,
    RankedQueue,
    SchedulingContext,
)
from repro.cluster.spec import ClusterSpec, NodeSpec
from repro.cluster.workload import EpochKey, JobSpec, Workload
from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.errors import ClusterError
from repro.fold import left_sum
from repro.obs.metrics import get_registry
from repro.obs.tracing import span

#: Service-estimate memo key: task, dataset, batch size, gang size,
#: strategy, simulated steps and epochs — every job field the estimate reads.
EstimateKey = Tuple[str, str, int, int, str, int, int]


@dataclass
class _Attempt:
    """One running execution attempt of a job's gang on a node."""

    seq: int
    job: JobSpec
    node: NodeSpec
    gpus: int
    cell: str  # label of the experiment cell the gang runs as
    overhead: float  # nominal seconds of recovery setup folded into the attempt
    attempt_full: float  # nominal full-job service at this (node, gang) sizing
    nominal_total: float  # overhead + remaining work, in nominal seconds
    nominal_remaining: float
    last_settle: float  # wall instant the nominal_remaining was last updated
    start: float
    finish: float


@dataclass
class _Progress:
    """Cross-attempt bookkeeping for one job."""

    done: float = 0.0  # fraction of the whole job preserved so far
    attempts: int = 0
    first_start: Optional[float] = None
    first_seq: int = 0  # sequence number of the first attempt
    preemptions: int = 0
    gpu_seconds: float = 0.0
    wasted_gpu_seconds: float = 0.0
    recoveries: List[float] = field(default_factory=list)
    interrupted_at: Optional[float] = None
    cost_usd: float = 0.0


#: One fault-timeline action: (time, trace order, action, fault event, token).
_TimelineEntry = Tuple[float, int, str, FaultEvent, Optional[Dict[str, int]]]


def _fault_timeline(
    trace: Optional[FaultTrace], nodes: Dict[str, int]
) -> Deque[_TimelineEntry]:
    """Expand a fault trace into time-ordered timeline actions.

    Preemptions become a down/up pair, stragglers a slow/fast pair.  The
    shared token dict carries the actually-reclaimed amount from 'down' to
    its 'up'.
    """
    entries: List[_TimelineEntry] = []
    order = itertools.count()
    for event in trace.events if trace is not None else ():
        if event.node not in nodes:
            raise ClusterError(
                f"fault trace {trace.name!r} names unknown node "
                f"{event.node!r}; cluster nodes: {sorted(nodes)}"
            )
        if event.kind == "crash":
            entries.append((event.time, next(order), "crash", event, None))
        elif event.kind == "preempt":
            token: Dict[str, int] = {}
            entries.append((event.time, next(order), "down", event, token))
            entries.append((event.time + event.duration, next(order), "up", event, token))
        else:  # straggler
            entries.append((event.time, next(order), "slow", event, None))
            entries.append((event.time + event.duration, next(order), "fast", event, None))
    entries.sort(key=lambda entry: entry[:2])
    return deque(entries)


def _sized(job: JobSpec, gpus: int) -> JobSpec:
    return job if gpus == job.gpus else replace(job, gpus=gpus)


class _PendingQueue:
    """The queued jobs of one run, in enqueue order and in the policy's order.

    ``jobs`` is the queue in enqueue order.  Under a ``rank`` function,
    ``ranked`` holds the same jobs sorted by ``(rank(job), enqueue seq)``,
    kept with ``bisect`` on enqueue and dequeue, so a ranked policy's order
    is computed once per enqueue instead of on every decision; without one,
    ``ranked`` is ``jobs``.  A job ``rank`` returns ``None`` for is one no
    placement pass will ever see: it waits behind every ranked job.
    ``by_id`` maps each queued job's id to ``(enqueue seq, key, job)``.
    """

    def __init__(self, rank: Optional[Callable[[JobSpec], Optional[tuple]]] = None) -> None:
        self.rank = rank
        self.jobs: List[JobSpec] = []
        self.seqs: List[int] = []  # parallel to jobs, ascending
        self.ranked: List[JobSpec] = [] if rank is not None else self.jobs
        self.keys: List[tuple] = []  # parallel to ranked (ranked queues only)
        self.by_id: Dict[str, Tuple[int, Optional[tuple], JobSpec]] = {}
        self.sequence = itertools.count()

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self.jobs)

    def append(self, job: JobSpec) -> None:
        """Enqueue ``job`` (every enqueue site goes through here)."""
        seq = next(self.sequence)
        self.jobs.append(job)
        self.seqs.append(seq)
        key = None
        if self.rank is not None:
            rank = self.rank(job)
            key = (1, seq) if rank is None else (0, rank, seq)
            index = bisect_left(self.keys, key)
            self.ranked.insert(index, job)
            self.keys.insert(index, key)
        self.by_id[job.job_id] = (seq, key, job)

    def get(self, job_id: str) -> Optional[JobSpec]:
        """The queued job with this id, or ``None``."""
        entry = self.by_id.get(job_id)
        return entry[2] if entry is not None else None

    def remove(self, job: JobSpec) -> None:
        """Dequeue ``job``, found by its enqueue seq and key."""
        seq, key, _ = self.by_id.pop(job.job_id)
        index = bisect_left(self.seqs, seq)
        del self.jobs[index]
        del self.seqs[index]
        if key is not None:
            index = bisect_left(self.keys, key)
            del self.ranked[index]
            del self.keys[index]


# Built-in policies whose ``rank_key`` order is the preemption scan's own
# order, ``(-urgency, arrival_time, job_id)`` (checked on random queues in
# tests/cluster/test_scheduler.py).  The scan walks their ranked queue as it
# stands; every other preempting policy's queue is scored and sorted.
_SCAN_IN_RANK_ORDER = (PriorityFirstFit, DeadlineAware)


class _Deficits(Mapping):
    """Fair-share deficits (tenant -> GPU-seconds owed), computed on first read.

    ``compute(t)`` runs at most once, on the first lookup, iteration or
    length, so a pass whose policy never reads deficits never pays for
    them.  The values must be those of the instant the context was built
    for, so the simulator closes the mapping (:meth:`close`) before the
    fleet changes; any read after that raises :class:`ClusterError` instead
    of returning numbers that belong to no instant.
    """

    __slots__ = ("_compute", "_t", "_values")

    def __init__(self, compute: Callable[[float], Dict[str, float]], t: float) -> None:
        self._compute: Optional[Callable[[float], Dict[str, float]]] = compute
        self._t = t
        self._values: Optional[Dict[str, float]] = None

    def close(self) -> None:
        """End the mapping's instant: every later read raises."""
        self._compute = self._values = None

    def _resolved(self) -> Dict[str, float]:
        if self._values is None:
            if self._compute is None:
                raise ClusterError(
                    f"fair-share deficits of the drain instant t={self._t} read after "
                    "it ended; read a SchedulingContext only during the place or "
                    "urgency call it is passed to"
                )
            self._values = self._compute(self._t)
        return self._values

    def __getitem__(self, tenant: str) -> float:
        return self._resolved()[tenant]

    def get(self, tenant: str, default=None):
        # SchedulingContext.deficit's path: one frame once resolved.
        values = self._values
        if values is None:
            values = self._resolved()
        return values.get(tenant, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._resolved())

    def __len__(self) -> int:
        return len(self._resolved())

    def __repr__(self) -> str:
        return repr(self._resolved())


class _FleetRun:
    """The mutable state of one fleet replay, with one handler per event kind.

    :meth:`ClusterSimulator._run` picks each next instant; the handlers
    apply what happens at it: :meth:`complete`, :meth:`fault` (crash /
    down / up / slow / fast), :meth:`arrive` and :meth:`drain` (placement
    passes, then voluntary preemption).  ``free`` is the per-node free-GPU
    ledger, updated on every change so policies read it without a rebuild.
    """

    def __init__(
        self, sim: "ClusterSimulator", workload: Workload, trace: Optional[FaultTrace]
    ) -> None:
        self.sim = sim
        self.workload = workload
        self.trace = trace
        self.tenants = workload.tenant_map()
        # The plain-run rule is stated once, in the module docstring.
        self.plain = (
            trace is None
            and not self.tenants
            and sim.price_curve is None
            and all(job.deadline is None for job in workload.jobs)
        )
        self.contextual = getattr(sim.policy, "tenant_aware", False) and not self.plain
        self.preempts = getattr(sim.policy, "preempts", False) and not self.plain
        # Fair-share weights (quota when declared, else equal shares) and
        # GPU-seconds consumed by settled attempts.
        self.share_weight = {
            name: float(spec.quota_gpus) if spec.quota_gpus is not None else 1.0
            for name, spec in self.tenants.items()
        }
        self.total_weight = left_sum(self.share_weight.values()) or 1.0
        self.consumed: Dict[str, float] = {}
        # GPUs each tenant holds in running attempts (tenants holding none
        # are absent), kept by _start and _release on non-plain runs.
        self.usage: Dict[str, int] = {}
        self.quotas = {
            name: spec.quota_gpus
            for name, spec in self.tenants.items()
            if spec.quota_gpus is not None
        }
        self.capacity = sim.cluster.node_gpus()  # crash-adjusted
        self.down = {name: 0 for name in self.capacity}  # preempted now
        self.free = dict(self.capacity)
        # The live fleet size (every node's available GPUs) since the instant
        # it last changed, and each tenant's share-weighted entitlement: the
        # live capacity integrated from t=0 up to that instant.
        self.fleet = left_sum(self.available(name) for name in self.capacity)
        self.fleet_since = 0.0
        self.entitled = {name: 0.0 for name in self.tenants}
        self.factor = {name: 1.0 for name in self.capacity}
        # Exact per-node occupancy: a restarted or migrated job spans nodes
        # across attempts, so per-node utilization cannot be derived from
        # the (final-node) completion records alone.
        self.node_busy = {} if self.plain else {name: 0.0 for name in self.capacity}
        self.timeline = _fault_timeline(trace, self.capacity)
        self.sequence = itertools.count()
        self.entries: Dict[int, _Attempt] = {}
        self.heap: List[Tuple[float, int]] = []
        self.queue = _PendingQueue(self._ranker())
        self.scan_ranked = (
            self.queue.rank is not None and type(sim.policy) in _SCAN_IN_RANK_ORDER
        )
        self.records: List[JobRecord] = []
        self.killed: List[dict] = []
        self.recoveries: List[float] = []
        self.progress = {job.job_id: _Progress() for job in workload}
        self.events = 0
        self.peak_heap = 0
        # The SchedulingContext of the latest placement pass (None when the
        # policy is not tenant-aware).  drain consults _try_preempt only
        # right after a pass at the same instant that placed nothing, so
        # nothing the context reads has changed and the preemption scan
        # reuses it instead of building its own.
        self.pass_context: Optional[SchedulingContext] = None

    def _ranker(self) -> Optional[Callable[[JobSpec], Optional[tuple]]]:
        """The queue's rank function: the policy's ``rank_key``, if it has one.

        The key gets a context of the run-static tenant specs only.  A gang
        wider than its tenant's whole quota never passes the quota filter
        (``kill_unplaceable`` removes it), so it is not ranked: its estimate
        may cost a simulation that no report needs.
        """
        rank_key = getattr(self.sim.policy, "rank_key", None)
        if rank_key is None:
            return None
        estimate = self.sim.estimate_service_time
        context = SchedulingContext(tenants=self.tenants) if self.contextual else None
        quotas = self.quotas

        def rank(job: JobSpec) -> Optional[tuple]:
            if job.gpus > quotas.get(job.tenant, job.gpus):
                return None
            return rank_key(job, estimate, context)

        return rank

    def available(self, name: str) -> int:
        """The node's GPUs now: crash-adjusted capacity minus preempted ones."""
        return max(0, self.capacity[name] - self.down[name])

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #
    def arrive(self, job: JobSpec) -> None:
        self.events += 1
        self.queue.append(job)

    def complete(self, attempt: _Attempt, t: float) -> None:
        self.events += 1
        job = attempt.job
        prog = self.progress[job.job_id]
        self._release(attempt, t)
        prog.wasted_gpu_seconds += attempt.gpus * attempt.overhead
        assert prog.first_start is not None
        plain = self.plain
        self.records.append(
            JobRecord(
                job_id=job.job_id,
                node=attempt.node.name,
                gpus=job.gpus,
                strategy=job.strategy,
                cell=attempt.cell,
                arrival_time=job.arrival_time,
                start_time=prog.first_start,
                finish_time=t,
                preemptions=prog.preemptions,
                gpu_seconds=None if plain else prog.gpu_seconds,
                wasted_gpu_seconds=prog.wasted_gpu_seconds,
                recovery_seconds=left_sum(prog.recoveries),
                final_gpus=None if plain else attempt.gpus,
                tenant=job.tenant,
                deadline=job.deadline,
                cost_usd=None if plain else prog.cost_usd,
            )
        )

    def fault(
        self, t: float, action: str, event: FaultEvent, token: Optional[Dict[str, int]]
    ) -> bool:
        """Apply one timeline action; True when attempt finish times moved."""
        self.events += 1
        name = event.node
        if action in ("slow", "fast"):
            on_node = [a for a in self.entries.values() if a.node.name == name]
            for attempt in on_node:
                self._settle(attempt, t)
            if action == "slow":
                self.factor[name] *= event.factor
            else:
                self.factor[name] = max(1.0, self.factor[name] / event.factor)
            for attempt in on_node:
                attempt.finish = t + attempt.nominal_remaining * self.factor[name]
            return True
        before = self.available(name)
        if action == "up":
            self.down[name] = max(0, self.down[name] - token.get("taken", 0))
            self._resize(name, before, t)
            return False
        amount = event.gpus if event.gpus is not None else self.capacity[name]
        if action == "crash":
            self.capacity[name] = max(0, self.capacity[name] - amount)
        else:  # down
            token["taken"] = max(0, min(amount, self.capacity[name] - self.down[name]))
            self.down[name] += token["taken"]
        self._resize(name, before, t)
        self._recover(self._evict_for_capacity(name, t), name, t)
        return True

    def _resize(self, name: str, before: int, t: float) -> None:
        """Apply a change of the node's available GPUs (``before`` -> now) at ``t``.

        The free ledger follows the change.  When the fleet size moves, each
        tenant's entitlement is advanced to ``t`` at the old size first, so
        the fair-share deficit integrates capacity over time.
        """
        change = self.available(name) - before
        self.free[name] += change
        if change:
            elapsed = t - self.fleet_since
            for tenant in self.entitled:
                self.entitled[tenant] += (
                    self.fleet * self.share_weight[tenant] / self.total_weight * elapsed
                )
            self.fleet += change
            self.fleet_since = t

    def drain(self, t: float) -> None:
        """Place queued gangs, preempting on the policy's behalf if stuck.

        A preempting policy whose ``place`` order disagrees with its
        ``urgency`` can evict a gang and re-place it at one instant forever;
        :meth:`_no_livelock` turns that into a :class:`ClusterError`.
        """
        states: Optional[set] = None  # fleet states after evicting scans at t
        while True:
            progressed = self._place_pass(t)
            if not self.preempts or not (progressed or self._try_preempt(t)):
                self._end_context()
                return
            if not progressed:  # the scan evicted
                if states is None:
                    states = set()
                self._no_livelock(t, states)

    def _no_livelock(self, t: float, states: set) -> None:
        """Record the fleet state after an evicting scan at ``t``; raise on a repeat.

        The state is the running gangs (job, node, size, in start order) and
        the queue in enqueue order.  A policy's next decisions at ``t``
        follow from it: the free ledger, the usage and the ranked order do,
        and the deficits cannot move within one instant (an eviction only
        moves a gang's GPU-seconds from live to consumed).  So a state seen
        before means the drain would cycle forever.  Only drains that evict
        pay for the check.
        """
        state = (
            tuple((a.job.job_id, a.node.name, a.gpus) for a in self.entries.values()),
            tuple(job.job_id for job in self.queue.jobs),
        )
        if state in states:
            self._end_context()
            cycling = [
                job.job_id
                for job in self.queue.jobs
                if self.progress[job.job_id].interrupted_at == t
            ]
            raise ClusterError(
                f"policy {self.sim.policy.name!r} livelocked at t={t}: its place "
                "order re-places the gangs its urgency evicts, so the fleet keeps "
                f"returning to one state; evicted and re-placed: {cycling}"
            )
        states.add(state)

    def kill_unplaceable(self, t: float) -> bool:
        """Kill queued gangs the fleet can never host again; False if none."""
        peak = max((self.available(name) for name in self.capacity), default=0)

        def never_fits(job: JobSpec) -> bool:
            if job.gpus > peak:
                return True
            # A gang larger than its tenant's whole quota can never start,
            # however idle the fleet.
            return job.gpus > self.quotas.get(job.tenant, job.gpus)

        unplaceable = [job for job in self.queue if never_fits(job)]
        for job in unplaceable:
            self.queue.remove(job)
            prog = self.progress[job.job_id]
            self.killed.append(
                {
                    "job_id": job.job_id,
                    "gpus": job.gpus,
                    "preemptions": prog.preemptions,
                    "gpu_seconds": prog.gpu_seconds,
                    "wasted_gpu_seconds": prog.wasted_gpu_seconds,
                    "killed_at": t,
                    "tenant": job.tenant,
                    "deadline": job.deadline,
                    "cost_usd": prog.cost_usd,
                }
            )
        return bool(unplaceable)

    def rebuild_heap(self) -> None:
        """Re-key the completion heap after finish times moved or attempts left."""
        self.heap[:] = [(attempt.finish, attempt.seq) for attempt in self.entries.values()]
        heapq.heapify(self.heap)

    def report(self) -> ClusterReport:
        sim, trace = self.sim, self.trace
        trace_events = trace.events if trace is not None else ()
        if self.plain:
            # One attempt per job, so first-start order is attempt order.
            self.records.sort(key=lambda record: self.progress[record.job_id].first_seq)
        return ClusterReport(
            policy=sim.policy.name,
            cluster_name=sim.cluster.name,
            workload_name=self.workload.name,
            node_gpus=sim.cluster.node_gpus(),
            records=tuple(self.records),
            fault_events=tuple(event.to_dict() for event in trace_events),
            fault_trace_name=trace.name if trace is not None else None,
            elastic_policy=sim.elastic.name if trace is not None else None,
            recoveries=tuple(self.recoveries),
            killed=tuple(self.killed),
            node_busy_gpu_seconds=dict(self.node_busy),
            tenants=tuple(spec.to_dict() for spec in self.workload.tenants),
            price_curve=sim.price_curve.name if sim.price_curve is not None else None,
        )

    # ------------------------------------------------------------------ #
    # Placement and preemption
    # ------------------------------------------------------------------ #
    def _place_pass(self, t: float) -> bool:
        """One round of placements as far as the policy allows.

        Decisions are collected first (reserving GPUs so the policy sees a
        correct ledger), the missing epoch-time cells batch-fill in one
        fan-out, then the attempts start — one memo-fill span per drain
        instant.  Tenant quotas filter the queue the policy sees;
        tenant-aware policies of a non-plain run also get a
        :class:`SchedulingContext` of usage and fair-share deficits, built
        once per pass because nothing it reads changes until the batch
        starts.
        """
        if not self.queue.jobs:
            return False
        sim = self.sim
        self._end_context()
        context = self.pass_context = self._context(t) if self.contextual else None
        placed: List[Tuple[JobSpec, NodeSpec]] = []
        reserved: Dict[str, int] = {}
        while self.queue.jobs:
            pending = self._eligible(reserved)
            if not pending:
                break
            if context is None:
                placement = sim.policy.place(
                    pending, dict(self.free), sim.estimate_service_time
                )
            else:
                placement = sim.policy.place(
                    pending, dict(self.free), sim.estimate_service_time, context
                )
            if placement is None:
                break
            job, node = self._resolve(placement, reserved)
            self.queue.remove(job)
            self.free[node.name] -= job.gpus
            reserved[job.tenant] = reserved.get(job.tenant, 0) + job.gpus
            placed.append((job, node))
        if not placed:
            return False
        sim._fill_epoch_times(placed)
        for job, node in placed:
            self._start(job, node, job.gpus, t, "restart")
        return True

    def _resolve(self, placement: Placement, reserved: Dict[str, int]) -> Tuple[JobSpec, NodeSpec]:
        """Validate a policy's decision against the queue and the ledger.

        The job is looked up by id; one the queue holds but the quota
        filter hid from the policy is as unknown as one it does not hold.
        """
        sim, free = self.sim, self.free
        job = self.queue.get(placement.job_id)
        if job is not None and job.gpus > self._quota_room(reserved).get(job.tenant, job.gpus):
            job = None
        if job is None:
            raise ClusterError(
                f"policy {sim.policy.name!r} placed unknown job "
                f"{placement.job_id!r} (not in queue)"
            )
        if placement.node not in free:
            raise ClusterError(
                f"policy {sim.policy.name!r} placed job {job.job_id!r} on unknown "
                f"node {placement.node!r}; cluster nodes: {list(free)}"
            )
        node = sim.cluster.node(placement.node)
        if free[node.name] < job.gpus:
            raise ClusterError(
                f"policy {sim.policy.name!r} placed job {job.job_id!r} "
                f"({job.gpus} GPUs) on node {node.name!r} with only "
                f"{free[node.name]} free"
            )
        return job, node

    def _try_preempt(self, t: float) -> bool:
        """Voluntarily evict strictly-less-urgent gangs for a starved job.

        Consulted only after a placement pass stalls with jobs still
        queued, and only for policies declaring ``preempts = True``.
        Victims are the youngest strictly-lower-urgency gangs on the first
        node that can host the starved job after eviction; they take the
        standard interrupt path (checkpoint losses, restart overhead,
        recovery latency all charged) and rejoin the queue.  Urgency
        comparisons are strict, so preemption chains terminate and
        equal-urgency gangs never thrash.

        Queued jobs are tried most urgent first (ties: arrival, then id).
        priority and deadline-aware rank their queue in exactly that order
        (``_SCAN_IN_RANK_ORDER``), so the scan walks the ranked queue as it
        stands and scores only the jobs it reaches; any other policy's
        quota-eligible queue is scored and sorted.  Each running gang is
        scored once.  The walk stops at the first job no running gang is
        strictly less urgent than — with a ranked queue, usually its head
        — and only a job that gets past that check groups the running
        gangs by node, youngest first.  An ``(urgency, gpus)`` pair that found no node is not
        searched again: nothing changes until an eviction returns.
        Attempts enter ``entries`` in ``seq`` order, and ``seq`` grows
        with the start instant, so youngest first by ``(start, seq)`` is
        simply the reverse of ``entries``.
        """
        if not self.queue.jobs or not self.entries:
            return False
        urgency, context = self.sim.policy.urgency, self.pass_context
        attempts = list(reversed(self.entries.values()))
        scores = [urgency(attempt.job, context) for attempt in attempts]
        floor = min(scores)
        if self.scan_ranked:
            candidates: Iterable[Tuple[float, JobSpec]] = (
                (urgency(job, context), job)
                for job in self._within_quota(self.queue.ranked, {})
            )
        else:
            jobs = list(self._within_quota(self.queue.jobs, {}))
            targets = [urgency(job, context) for job in jobs]
            if not jobs or max(targets) <= floor:
                return False  # no running gang is strictly less urgent
            candidates = sorted(
                zip(targets, jobs),
                key=lambda item: (-item[0], item[1].arrival_time, item[1].job_id),
            )
        running: Optional[Dict[str, List[Tuple[float, _Attempt]]]] = None
        failed = set()
        for target, job in candidates:
            if target <= floor:
                return False  # no running gang is strictly less urgent
            if (target, job.gpus) in failed:
                continue
            if running is None:
                running = {}
                for score, attempt in zip(scores, attempts):
                    running.setdefault(attempt.node.name, []).append((score, attempt))
            for node in self.sim.cluster.nodes:
                if self.available(node.name) < job.gpus:
                    continue
                short = job.gpus - self.free[node.name]
                evict: List[_Attempt] = []
                for score, attempt in running.get(node.name, ()):
                    if short <= 0:
                        break
                    if score < target:
                        evict.append(attempt)
                        short -= attempt.gpus
                if evict and short <= 0:
                    for attempt in evict:
                        self._interrupt(attempt, t)
                        self.queue.append(attempt.job)
                    # The interrupts invalidated the victims' completion
                    # entries; rebuild before the next event is picked.
                    self.rebuild_heap()
                    return True
            failed.add((target, job.gpus))
        return False

    def _context(self, t: float) -> SchedulingContext:
        """Tenant specs, live usage and fair-share deficits at ``t``.

        The deficits are computed on first read (:class:`_Deficits`): of
        the built-in policies only fair-share reads them.  The context is
        read within the pass (or the preemption scan) it was built for,
        before any attempt starts or ends; :meth:`_end_context` closes it.
        """
        return SchedulingContext(
            now=t,
            tenants=self.tenants,
            usage_gpus=dict(self.usage),
            deficits=_Deficits(self._deficits, t),
        )

    def _end_context(self) -> None:
        """Close and drop the latest pass's context before the fleet changes.

        A policy that kept the context and reads its deficits later gets
        an error, not values of a past instant.  Closing also breaks the
        context's reference back to this run, so a finished run is freed
        without the cycle collector.
        """
        if self.pass_context is not None:
            deficits = self.pass_context.deficits
            if isinstance(deficits, _Deficits):
                deficits.close()
            self.pass_context = None

    def _deficits(self, t: float) -> Dict[str, float]:
        """Each tenant's fair-share deficit at ``t``.

        A deficit is the tenant's share-weighted slice of the live fleet
        capacity integrated from t=0 minus the GPU-seconds it consumed;
        positive means the tenant is owed capacity.  The integral is the
        entitlement up to the fleet's last resize plus the current size
        over the time since.
        """
        live = dict(self.consumed)
        for attempt in self.entries.values():
            live[attempt.job.tenant] = live.get(attempt.job.tenant, 0.0) + (
                attempt.gpus * (t - attempt.start)
            )
        fleet, elapsed = self.fleet, t - self.fleet_since
        return {
            name: self.entitled[name]
            + fleet * self.share_weight[name] / self.total_weight * elapsed
            - live.get(name, 0.0)
            for name in self.tenants
        }

    def _eligible(self, reserved: Dict[str, int]) -> Tuple[JobSpec, ...]:
        """What the policy sees: the queue minus over-quota jobs.

        A ranked queue is handed over in rank order as the policy's
        :class:`RankedQueue`, any other in arrival order.
        """
        jobs = self._within_quota(self.queue.ranked, reserved)
        if self.queue.rank is not None:
            return RankedQueue(jobs, self.sim.policy)
        return tuple(jobs)

    def _quota_room(self, reserved: Dict[str, int]) -> Dict[str, int]:
        """GPUs each quota-capped tenant may still take.

        That is its quota minus the GPUs it holds and those ``reserved``
        for it by same-instant placements that have not become live
        attempts yet, so a tenant cannot blow through its quota within one
        drain instant.  A gang fits the quota when it is no wider.
        """
        usage = self.usage
        return {
            tenant: quota - usage.get(tenant, 0) - reserved.get(tenant, 0)
            for tenant, quota in self.quotas.items()
        }

    def _within_quota(
        self, jobs: Sequence[JobSpec], reserved: Dict[str, int]
    ) -> Iterable[JobSpec]:
        """``jobs`` minus those whose tenant GPU quota is exhausted, in order.

        Lazy when any tenant has a quota, so a walk that stops early
        filters only the jobs it reaches.
        """
        if not self.quotas:
            return jobs
        room = self._quota_room(reserved)
        return (job for job in jobs if job.gpus <= room.get(job.tenant, job.gpus))

    # ------------------------------------------------------------------ #
    # Attempt lifecycle
    # ------------------------------------------------------------------ #
    def _start(self, job: JobSpec, node: NodeSpec, gpus: int, t: float, action: str) -> None:
        """Start an attempt on GPUs the caller already took from ``free``."""
        self.events += 1
        sim = self.sim
        prog = self.progress[job.job_id]
        overhead = 0.0 if prog.attempts == 0 else sim.recovery.overhead(action)
        sized = _sized(job, gpus)
        server = node.server
        key = sized.epoch_key(server)
        attempt_full = sim._epoch_time(key, sized, server) * sized.epochs
        nominal_total = overhead + (1.0 - prog.done) * attempt_full
        finish = t + nominal_total * self.factor[node.name]
        seq = next(self.sequence)
        self.entries[seq] = _Attempt(
            seq=seq,
            job=job,
            node=node,
            gpus=gpus,
            cell=sim._cell(key, sized, server)[1],
            overhead=overhead,
            attempt_full=attempt_full,
            nominal_total=nominal_total,
            nominal_remaining=nominal_total,
            last_settle=t,
            start=t,
            finish=finish,
        )
        heapq.heappush(self.heap, (finish, seq))
        if not self.plain:
            self.usage[job.tenant] = self.usage.get(job.tenant, 0) + gpus
        if len(self.heap) > self.peak_heap:
            self.peak_heap = len(self.heap)
        if prog.first_start is None:
            prog.first_start = t
            prog.first_seq = seq
        if prog.interrupted_at is not None:
            delay = t - prog.interrupted_at
            prog.recoveries.append(delay)
            self.recoveries.append(delay)
            prog.interrupted_at = None
        prog.attempts += 1

    def _release(self, attempt: _Attempt, t: float) -> float:
        """Free an attempt's GPUs and charge its wall time (returned)."""
        del self.entries[attempt.seq]
        self.free[attempt.node.name] += attempt.gpus
        wall = t - attempt.start
        if not self.plain:
            gpu_wall = attempt.gpus * wall
            prog = self.progress[attempt.job.job_id]
            prog.gpu_seconds += gpu_wall
            prog.cost_usd += gpu_cost(
                attempt.node.server, attempt.gpus, attempt.start, t, self.sim.price_curve
            )
            self.node_busy[attempt.node.name] += gpu_wall
            tenant = attempt.job.tenant
            self.consumed[tenant] = self.consumed.get(tenant, 0.0) + gpu_wall
            held = self.usage[tenant] - attempt.gpus
            if held:
                self.usage[tenant] = held
            else:
                del self.usage[tenant]
        return wall

    def _settle(self, attempt: _Attempt, t: float) -> None:
        """Convert wall time since the last settle into nominal progress."""
        elapsed = t - attempt.last_settle
        if elapsed > 0:
            attempt.nominal_remaining -= elapsed / self.factor[attempt.node.name]
            attempt.last_settle = t

    def _interrupt(self, attempt: _Attempt, t: float) -> None:
        """Evict a running attempt, charging checkpoint/restart losses."""
        self._settle(attempt, t)
        prog = self.progress[attempt.job.job_id]
        done_nominal = attempt.nominal_total - attempt.nominal_remaining
        productive = max(0.0, done_nominal - attempt.overhead)
        lost = self.sim.recovery.lost_seconds(attempt.job.strategy, attempt.gpus, productive)
        preserved = max(0.0, productive - lost)
        if attempt.attempt_full > 0:
            prog.done = min(1.0, prog.done + preserved / attempt.attempt_full)
        wall = self._release(attempt, t)
        prog.wasted_gpu_seconds += attempt.gpus * max(0.0, wall - preserved)
        prog.preemptions += 1
        prog.interrupted_at = t

    def _evict_for_capacity(self, name: str, t: float) -> List[JobSpec]:
        """Interrupt the node's youngest gangs until it fits its capacity."""
        victims: List[JobSpec] = []
        if self.free[name] >= 0:
            return victims
        # Youngest first is reverse seq order (see _try_preempt).
        on_node = [attempt for attempt in self.entries.values() if attempt.node.name == name]
        for attempt in reversed(on_node):
            if self.free[name] >= 0:
                break
            victims.append(attempt.job)
            self._interrupt(attempt, t)
        return victims

    def _recover(self, victims: List[JobSpec], lost_node: str, t: float) -> None:
        """Requeue each evicted gang or continue it where the elastic policy says."""
        sim = self.sim
        for job in victims:
            decision = sim.elastic.reschedule(job, lost_node, dict(self.free), sim.cluster)
            if decision.action == "queue":
                self.queue.append(job)
                continue
            node = sim.cluster.node(decision.node)
            gpus = min(decision.gpus, job.gpus)  # a gang never grows
            if self.free[node.name] < gpus:
                raise ClusterError(
                    f"elastic policy {sim.elastic.name!r} continued job "
                    f"{job.job_id!r} ({gpus} GPUs) on node {node.name!r} "
                    f"with only {self.free[node.name]} free"
                )
            self.free[node.name] -= gpus
            action = "shrink" if node.name == lost_node else "migrate"
            self._start(job, node, gpus, t, action)


class ClusterSimulator:
    """Event-driven gang scheduler over a fleet of simulated servers.

    Example:
        >>> from repro.cluster.simulator import ClusterSimulator
        >>> from repro.cluster.spec import default_cluster
        >>> from repro.cluster.workload import poisson_workload
        >>> simulator = ClusterSimulator(default_cluster(), policy="fifo")
        >>> report = simulator.run(poisson_workload(num_jobs=6, rate=0.5))
        >>> (report.num_jobs, report.makespan > 0)
        (6, True)

    With a fault source attached the same loop injects incidents and
    recovers gangs through an elastic policy:

        >>> from repro.cluster.faults import FaultModel
        >>> faulty = ClusterSimulator(default_cluster(), policy="fifo",
        ...                           faults=FaultModel(preempt_rate=0.002),
        ...                           elastic="shrink")
        >>> report = faulty.run(poisson_workload(num_jobs=6, rate=0.5))
        >>> report.faults_injected >= 0
        True
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        policy: Union[str, PlacementPolicy] = "fifo",
        session: Optional[Session] = None,
        epoch_time_cache: Optional[Dict[EpochKey, float]] = None,
        faults: Union[FaultTrace, FaultModel, str, None] = None,
        elastic: Union[str, ReschedulePolicy] = "restart",
        recovery: Optional[RecoveryModel] = None,
        fault_seed: int = 0,
        price_curve: Optional[PriceCurve] = None,
    ) -> None:
        self.cluster = cluster
        self.policy = POLICIES.get(policy) if isinstance(policy, str) else policy
        self.session = session if session is not None else Session()
        self.faults = faults
        self.elastic = resolve_elastic(elastic)
        self.recovery = recovery if recovery is not None else RecoveryModel()
        self.fault_seed = fault_seed
        self.price_curve = price_curve
        # Pass one dict to several simulators (as run_policy_comparison does)
        # and the epoch-time memo is shared too: later simulators replay the
        # fleet without re-running any discrete-event simulation.
        self._epoch_times: Dict[EpochKey, float] = (
            epoch_time_cache if epoch_time_cache is not None else {}
        )
        # Each distinct key's experiment config and cell label, built the
        # first time this simulator sees the key (see _cell).
        self._cells: Dict[EpochKey, Tuple[ExperimentConfig, str]] = {}
        self._estimates: Dict[EstimateKey, float] = {}
        # Per-run aggregates the event loops fill with plain local ints and
        # _flush_metrics pushes to the registry once per run().
        self._last_events = 0
        self._last_peak_heap = 0

    # ------------------------------------------------------------------ #
    # Service-time model (Session-backed, memoised per cell)
    # ------------------------------------------------------------------ #
    def epoch_time(self, job: JobSpec, node: NodeSpec) -> float:
        """Simulated seconds per epoch for ``job``'s gang on ``node``.

        The memo key is the cell (which includes the node's server type and
        the gang size), the strategy and the step count — nothing about the
        placement policy or fault state, which cannot affect a nominal
        epoch time.  Elastic re-partitions therefore memoise under their
        actual (smaller) gang size, never alias the original one.
        """
        return self._epoch_time(job.epoch_key(node.server), job, node.server)

    def _epoch_time(self, key: EpochKey, job: JobSpec, server: str) -> float:
        """The memoised epoch time of ``key``, ``job``'s memo key on ``server``."""
        epoch = self._epoch_times.get(key)
        if epoch is None:
            config = self._cell(key, job, server)[0]
            epoch = self._epoch_times[key] = self.session.run(config).epoch_time
        return epoch

    def _cell(self, key: EpochKey, job: JobSpec, server: str) -> Tuple[ExperimentConfig, str]:
        """``job``'s experiment config on ``server`` and its cell label.

        Built the first time this simulator sees ``key`` (``job``'s memo key
        on ``server``), so a fleet replay builds and validates one
        ``ExperimentConfig`` per distinct cell, not one per placement.  The
        config fills the memo on a miss; the label names each attempt's
        cell in the report.
        """
        cell = self._cells.get(key)
        if cell is None:
            config = job.experiment_config(server)
            cell = self._cells[key] = (config, config.cell_label())
        return cell

    def service_time(self, job: JobSpec, node: NodeSpec) -> float:
        """Full service time: per-epoch time scaled by the job's epoch count."""
        # Skips the epoch_time call level; estimate_service_time lands here
        # once per distinct estimate key, then answers from its own memo.
        return self._epoch_time(job.epoch_key(node.server), job, node.server) * job.epochs

    def _fill_epoch_times(self, placements: Sequence[Tuple[JobSpec, NodeSpec]]) -> None:
        """Batch-fill the epoch-time memo for freshly decided placements.

        The event loop collects every placement made at one event instant
        and resolves the missing ``EpochKey`` cells here in one fan-out,
        under a *single* ``cluster.memo_fill`` span and one counter bump —
        instead of a per-event ``Session.run`` span per cell — so profile
        reports stay readable at fleet scale.  Only keys the drained
        placements actually need are filled: the memo contents (and with
        them ``simulations_run`` and the store audit counters) are
        identical to the per-event fills this replaces.
        """
        memo = self._epoch_times
        missing: Dict[EpochKey, Tuple[JobSpec, str]] = {}
        for job, node in placements:
            key = job.epoch_key(node.server)
            if key not in memo and key not in missing:
                missing[key] = (job, node.server)
        if not missing:
            return
        with span("cluster.memo_fill", cells=len(missing), policy=self.policy.name):
            for key, (job, server) in missing.items():
                self._epoch_time(key, job, server)
        get_registry().counter(
            "repro_cluster_memo_fill_cells_total",
            "epoch-time memo cells filled, batched per drain instant",
        ).inc(len(missing), policy=self.policy.name)

    def estimate_service_time(self, job: JobSpec) -> float:
        """Node-independent estimate used by ordering policies (e.g. SJF).

        Uses the first node (in cluster order) whose inventory can hold the
        gang, so the estimate is deterministic and placement-independent.
        Memoised per simulator on the job fields the estimate reads — not
        the job id, since a policy may ask about ``replace(job, gpus=...)``
        — so policies may call it for every queued job on every decision.
        """
        key: EstimateKey = (
            job.task,
            job.dataset,
            job.batch_size,
            job.gpus,
            job.strategy,
            job.simulated_steps,
            job.epochs,
        )
        estimate = self._estimates.get(key)
        if estimate is not None:
            return estimate
        for node in self.cluster.nodes:
            if node.num_gpus >= job.gpus:
                estimate = self._estimates[key] = self.service_time(job, node)
                return estimate
        raise ClusterError(
            f"job {job.job_id!r} needs {job.gpus} GPUs but the largest node has "
            f"{self.cluster.max_gpus_per_node}"
        )

    @property
    def simulations_run(self) -> int:
        """Distinct (cell, strategy, steps) epoch times resolved so far.

        With a store-backed session some of these were hydrated from disk
        rather than simulated; ``session.stats.runs`` counts true
        simulations.
        """
        return len(self._epoch_times)

    # ------------------------------------------------------------------ #
    # Entry point and the event loop
    # ------------------------------------------------------------------ #
    def run(self, workload: Workload) -> ClusterReport:
        """Serve the whole workload and return the fleet-level report."""
        for job in workload:
            if job.gpus > self.cluster.max_gpus_per_node:
                raise ClusterError(
                    f"job {job.job_id!r} needs a {job.gpus}-GPU gang but the "
                    f"largest node of {self.cluster.name!r} has "
                    f"{self.cluster.max_gpus_per_node} GPUs"
                )
        trace = resolve_faults(self.faults, self.cluster, workload, seed=self.fault_seed)
        started = time.perf_counter()
        with span(
            "cluster.run",
            policy=self.policy.name,
            jobs=len(workload.jobs),
            faulted=trace is not None,
        ):
            report = self._run(workload, trace)
        self._flush_metrics(report, time.perf_counter() - started)
        return report

    def _flush_metrics(self, report: ClusterReport, duration_s: float) -> None:
        """Push one run's aggregate counters to the metrics registry.

        The event loop itself only bumps plain integers on its per-run
        state (see ``_run``); everything crosses into the registry exactly
        once per run, keeping the instrumented loop within the ≤5% overhead
        budget of ``bench_cluster_throughput``.
        """
        registry = get_registry()
        policy = self.policy.name
        registry.counter(
            "repro_cluster_runs_total", "completed fleet simulations"
        ).inc(policy=policy)
        registry.counter(
            "repro_cluster_events_total",
            "event-loop events processed (completions, arrivals, "
            "placements, fault-timeline actions)",
        ).inc(self._last_events, policy=policy)
        registry.counter(
            "repro_cluster_faults_total", "fault events injected"
        ).inc(len(report.fault_events), policy=policy)
        registry.gauge(
            "repro_cluster_heap_depth_peak",
            "peak completion-heap depth (gangs in flight) of the last run",
        ).set(self._last_peak_heap, policy=policy)
        registry.histogram(
            "repro_cluster_run_seconds", "wall time of one fleet simulation"
        ).observe(duration_s)

    def _run(self, workload: Workload, trace: Optional[FaultTrace]) -> ClusterReport:
        """The event loop: find the next instant, then apply its events in order."""
        run = _FleetRun(self, workload, trace)
        arrivals = workload.jobs
        next_arrival = 0
        heap, timeline = run.heap, run.timeline
        now = 0.0
        while next_arrival < len(arrivals) or run.queue.jobs or run.entries:
            event_times = []
            if next_arrival < len(arrivals):
                event_times.append(arrivals[next_arrival].arrival_time)
            if heap:
                event_times.append(heap[0][0])
            if timeline:
                event_times.append(timeline[0][0])
            if not event_times:
                # Nothing running, arriving or pending on the fault timeline,
                # yet jobs are queued: kill the gangs the (crash-shrunken)
                # fleet can never host again, then let the rest place.
                if not run.kill_unplaceable(now):
                    stuck = [job.job_id for job in run.queue]
                    raise ClusterError(
                        f"policy {self.policy.name!r} made no progress with an "
                        f"idle fleet; stuck jobs: {stuck}"
                    )
                run.drain(now)
                continue
            now = min(event_times)

            # 1. Completions first, so freed gangs are placeable this instant.
            while heap and heap[0][0] <= now:
                finish, seq = heapq.heappop(heap)
                run.complete(run.entries[seq], finish)

            # 2. Fault-timeline actions due at this instant, in trace order.
            moved = False
            while timeline and timeline[0][0] <= now:
                _, _, action, event, token = timeline.popleft()
                moved = run.fault(now, action, event, token) or moved
            if moved:
                run.rebuild_heap()

            # 3. Arrivals due at this instant.
            while (
                next_arrival < len(arrivals)
                and arrivals[next_arrival].arrival_time <= now
            ):
                run.arrive(arrivals[next_arrival])
                next_arrival += 1

            # 4. Drain the queue as far as the placement policy allows.
            run.drain(now)

        self._last_events = run.events
        self._last_peak_heap = run.peak_heap
        return run.report()


def run_policy_comparison(
    cluster: ClusterSpec,
    workload: Workload,
    policies: Optional[Tuple[str, ...]] = None,
    session: Optional[Session] = None,
    faults: Union[FaultTrace, FaultModel, str, None] = None,
    elastic: Union[str, ReschedulePolicy] = "restart",
    recovery: Optional[RecoveryModel] = None,
    fault_seed: int = 0,
    price_curve: Optional[PriceCurve] = None,
) -> Dict[str, ClusterReport]:
    """Serve one workload under several policies, sharing one session.

    ``policies`` defaults to every registered placement policy.  The
    session *and* the per-cell epoch-time memo are shared across the
    per-policy simulators, so later policies replay the fleet with zero
    additional profile builds and zero additional discrete-event
    simulations.  When a fault source is given, every policy faces the
    *same* trace (models materialise once, deterministic in the seed),
    so the comparison isolates the policy.

    Example:
        >>> from repro.cluster.simulator import run_policy_comparison
        >>> from repro.cluster.spec import default_cluster
        >>> from repro.cluster.workload import poisson_workload
        >>> workload = poisson_workload(num_jobs=6, rate=0.5)
        >>> reports = run_policy_comparison(default_cluster(), workload,
        ...                                 policies=("fifo", "sjf"))
        >>> sorted(reports)
        ['fifo', 'sjf']
    """
    if policies is None:
        policies = POLICIES.names()
    shared = session if session is not None else Session()
    trace = resolve_faults(faults, cluster, workload, seed=fault_seed)
    epoch_times: Dict[EpochKey, float] = {}
    reports: Dict[str, ClusterReport] = {}
    for name in policies:
        simulator = ClusterSimulator(
            cluster,
            policy=name,
            session=shared,
            epoch_time_cache=epoch_times,
            faults=trace,
            elastic=elastic,
            recovery=recovery,
            fault_seed=fault_seed,
            price_curve=price_curve,
        )
        reports[name] = simulator.run(workload)
    return reports


__all__ = [
    "ClusterSimulator",
    "EpochKey",
    "ELASTIC_POLICIES",
    "run_policy_comparison",
]
