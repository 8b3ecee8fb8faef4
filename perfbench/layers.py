"""The per-layer table and the tracer that fills it from outside the program.

:class:`Tracer` wraps public functions of each layer of ``repro`` (see
:data:`LAYERS`) with timing spans.  Spans nest through one stack, so every
span's *self* time is its duration minus the time of the wrapped calls it
made; the self times of all spans add up to the traced wall time, which is
what ``trace.coverage`` checks.  Nothing under ``src/`` changes: the
wrappers are installed by assigning attributes from this file and live only
in the traced workload process.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: One row per layer: the functions wrapped, the metrics it reports, and
#: the end-to-end metric each should move (and on which workload).
LAYERS = (
    {
        "layer": "cli",
        "wraps": ["import repro.cli"],
        "metrics": ["cli.import_s"],
        "moves": "setup_s on all four workloads; largest share on serve-warm",
    },
    {
        "layer": "serve",
        "wraps": ["PlannerService.dispatch"],
        "metrics": ["serve.dispatch_calls", "serve.dispatch_self_ms"],
        "moves": "latency_p50_ms on serve-warm; small on plan-cold",
    },
    {
        "layer": "store",
        "wraps": [
            "ExperimentStore.get",
            "ExperimentStore.put",
            "ExperimentStore.disk_summary",
        ],
        "metrics": [
            "store.get_calls",
            "store.get_ms",
            "store.hit_ratio",
            "store.put_calls",
            "store.put_ms",
            "store.disk_summary_calls",
            "store.disk_summary_ms",
        ],
        "moves": (
            "get and disk_summary move latency_p50_ms / ops_per_s on serve-warm; "
            "put moves ops_per_s on plan-cold; nothing on fleets"
        ),
    },
    {
        "layer": "core",
        "wraps": ["Session.run", "Session.profile"],
        "metrics": [
            "core.run_calls",
            "core.run_self_ms",
            "core.profile_builds",
            "core.profile_build_ms",
            "core.profile_hit_ratio",
        ],
        "moves": (
            "latency_p99_ms on plan-cold (first-per-cell profile builds form "
            "the tail); a little of ops_per_s on fleets"
        ),
    },
    {
        "layer": "parallel",
        "wraps": [
            "Strategy.build (every registered strategy)",
            "hybrid.search_ahd",
            "ScheduleExecutor.execute",
        ],
        "metrics": [
            "parallel.plan_calls",
            "parallel.plan_ms",
            "parallel.ahd_candidates",
            "parallel.execute_self_ms",
        ],
        "moves": "ops_per_s / latency_p50_ms on plan-cold; no change on serve-warm",
    },
    {
        "layer": "sim",
        "wraps": ["SimulationEngine.run"],
        "metrics": ["sim.run_calls", "sim.run_ms", "sim.events", "sim.events_per_s"],
        "moves": "ops_per_s on plan-cold; no change on serve-warm",
    },
    {
        "layer": "cluster",
        "wraps": [
            "ClusterSimulator.run",
            "PlacementPolicy.place (every registered policy)",
            "Session.run called inside ClusterSimulator.run (memo fills)",
        ],
        "metrics": [
            "cluster.run_self_ms",
            "cluster.place_calls",
            "cluster.place_ms",
            "cluster.memo_fills",
            "cluster.memo_fill_ms",
            "cluster.memo_hit_ratio",
        ],
        "moves": "ops_per_s on fleet-reliable and fleet-slo; nothing on the plan workloads",
    },
    {
        "layer": "trace",
        "wraps": [],
        "metrics": ["trace.coverage", "trace.overhead_ratio"],
        "moves": "none; these check the tracing itself",
    },
)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", ".coverage")):
        return "ratio"
    return "count"


#: The self-time metric each span's self time is reported under; the
#: largest of these names what dominates a workload's traced wall.
SELF_TIME_METRIC = {
    "serve.dispatch": "serve.dispatch_self_ms",
    "store.get": "store.get_ms",
    "store.put": "store.put_ms",
    "store.disk_summary": "store.disk_summary_ms",
    "core.run": "core.run_self_ms",
    "core.profile": "core.profile_build_ms",
    "parallel.build": "parallel.plan_ms",
    "parallel.search_ahd": "parallel.plan_ms",
    "parallel.execute": "parallel.execute_self_ms",
    "sim.run": "sim.run_ms",
    "cluster.run": "cluster.run_self_ms",
    "cluster.place": "cluster.place_ms",
}

#: Spans that must record calls on each workload.  A wrapper that never
#: fires there means the table silently lost a layer (its time would land in
#: the caller's self time, so ``trace.coverage`` alone cannot tell).
ACTIVE_SPANS = {
    "plan-cold": (
        "serve.dispatch",
        "store.get",
        "store.put",
        "store.disk_summary",
        "core.run",
        "core.profile",
        "parallel.build",
        "parallel.search_ahd",
        "parallel.execute",
        "sim.run",
    ),
    "serve-warm": ("serve.dispatch", "store.get", "store.disk_summary"),
    "fleet-reliable": ("cluster.run", "cluster.place", "core.run"),
    "fleet-slo": ("cluster.run", "cluster.place", "core.run"),
}


def rebind(original: Callable, replacement: Callable, package: str = "repro") -> int:
    """Point every loaded module attribute of ``package`` bound to ``original``
    at ``replacement``; returns how many were rebound.

    Patching only the defining module misses callers that copied the
    function with ``from module import function``.
    """
    rebound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                rebound += 1
    return rebound


class Span:
    """Accumulated calls, total time and self time of one wrapped function."""

    __slots__ = ("calls", "total_s", "self_s", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    """Nested timing spans with self-time accounting.

    ``wrap(name, fn)`` returns a function that times every call of ``fn``
    under span ``name``.  A wrapped call made while another is running is
    its child: its whole duration is subtracted from the parent's self
    time.  ``observe(args, result, elapsed, token)`` runs after each call
    to record counts; ``before(args)`` supplies its ``token``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: Dict[str, Span] = defaultdict(Span)
        self.counts: Dict[str, float] = defaultdict(float)
        self._children: List[float] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        span, stack, clock = self.spans[name], self._children, self.clock

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            stack.append(0.0)
            span.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.active -= 1
                children = stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, result, elapsed, token)
            return result

        return wrapper

    def self_total_s(self) -> float:
        return sum(span.self_s for span in self.spans.values())

    def install(self) -> None:
        """Wrap every function listed in :data:`LAYERS` (in this process)."""
        from repro.cluster.scheduler import POLICIES
        from repro.cluster.simulator import ClusterSimulator
        from repro.core.session import Session
        from repro.parallel import hybrid
        from repro.parallel.executor import ScheduleExecutor
        from repro.parallel.registry import REGISTRY
        from repro.serve.service import PlannerService
        from repro.sim.engine import SimulationEngine
        from repro.store.store import ExperimentStore

        counts = self.counts
        cluster_run = self.spans["cluster.run"]

        def count_hit(args, result, elapsed, token):
            counts["store.hits"] += result is not None

        def run_observe(args, result, elapsed, token):
            if cluster_run.active:
                counts["cluster.memo_fills"] += 1
                counts["cluster.memo_fill_s"] += elapsed

        def profile_before(args):
            return args[0].stats.profile_builds

        def profile_observe(args, result, elapsed, token):
            if args[0].stats.profile_builds > token:
                counts["core.profile_builds"] += 1
                counts["core.profile_build_s"] += elapsed

        def ahd_observe(args, result, elapsed, token):
            counts["parallel.ahd_candidates"] += result.best.plan.metadata[
                "search_space_size"
            ]

        def sim_observe(args, result, elapsed, token):
            counts["sim.events"] += len(result.records)

        def place_observe(args, result, elapsed, token):
            counts["cluster.placements"] += result is not None

        PlannerService.dispatch = self.wrap("serve.dispatch", PlannerService.dispatch)
        ExperimentStore.get = self.wrap("store.get", ExperimentStore.get, count_hit)
        ExperimentStore.put = self.wrap("store.put", ExperimentStore.put)
        ExperimentStore.disk_summary = self.wrap(
            "store.disk_summary", ExperimentStore.disk_summary
        )
        Session.run = self.wrap("core.run", Session.run, run_observe)
        Session.profile = self.wrap(
            "core.profile", Session.profile, profile_observe, profile_before
        )
        for name in REGISTRY.names():
            strategy = REGISTRY.get(name)
            strategy.build = self.wrap("parallel.build", strategy.build)
        import repro.core.pipebd  # noqa: F401  (a from-import caller of search_ahd)

        rebind(
            hybrid.search_ahd,
            self.wrap("parallel.search_ahd", hybrid.search_ahd, ahd_observe),
        )
        ScheduleExecutor.execute = self.wrap("parallel.execute", ScheduleExecutor.execute)
        SimulationEngine.run = self.wrap("sim.run", SimulationEngine.run, sim_observe)
        ClusterSimulator.run = self.wrap("cluster.run", ClusterSimulator.run)
        for name in POLICIES.names():
            policy = POLICIES.get(name)
            policy.place = self.wrap("cluster.place", policy.place, place_observe)

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Every per-layer metric except ``cli.import_s`` and the overhead."""
        spans, counts = self.spans, self.counts

        def calls(name: str) -> int:
            return spans[name].calls

        def total_ms(name: str) -> float:
            return spans[name].total_s * 1e3

        def self_ms(name: str) -> float:
            return spans[name].self_s * 1e3

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        sim_ms = total_ms("sim.run")
        placements = counts["cluster.placements"]
        profile_calls = calls("core.profile")
        return {
            "serve.dispatch_calls": calls("serve.dispatch"),
            "serve.dispatch_self_ms": self_ms("serve.dispatch"),
            "store.get_calls": calls("store.get"),
            "store.get_ms": total_ms("store.get"),
            "store.hit_ratio": ratio(counts["store.hits"], calls("store.get")),
            "store.put_calls": calls("store.put"),
            "store.put_ms": total_ms("store.put"),
            "store.disk_summary_calls": calls("store.disk_summary"),
            "store.disk_summary_ms": total_ms("store.disk_summary"),
            "core.run_calls": calls("core.run"),
            "core.run_self_ms": self_ms("core.run"),
            "core.profile_builds": int(counts["core.profile_builds"]),
            "core.profile_build_ms": counts["core.profile_build_s"] * 1e3,
            "core.profile_hit_ratio": ratio(
                profile_calls - counts["core.profile_builds"], profile_calls
            ),
            "parallel.plan_calls": calls("parallel.build"),
            "parallel.plan_ms": total_ms("parallel.build"),
            "parallel.ahd_candidates": int(counts["parallel.ahd_candidates"]),
            "parallel.execute_self_ms": self_ms("parallel.execute"),
            "sim.run_calls": calls("sim.run"),
            "sim.run_ms": sim_ms,
            "sim.events": int(counts["sim.events"]),
            "sim.events_per_s": ratio(counts["sim.events"], sim_ms / 1e3),
            "cluster.run_self_ms": self_ms("cluster.run"),
            "cluster.place_calls": calls("cluster.place"),
            "cluster.place_ms": total_ms("cluster.place"),
            "cluster.memo_fills": int(counts["cluster.memo_fills"]),
            "cluster.memo_fill_ms": counts["cluster.memo_fill_s"] * 1e3,
            "cluster.memo_hit_ratio": max(
                0.0, ratio(placements - counts["cluster.memo_fills"], placements)
            ),
            "trace.coverage": ratio(self.self_total_s(), wall_s),
        }

    def silent_spans(self, workload: str) -> List[str]:
        """The :data:`ACTIVE_SPANS` of ``workload`` that recorded no call."""
        return [
            name
            for name in ACTIVE_SPANS[workload]
            if name not in self.spans or not self.spans[name].calls
        ]

    def self_time_shares(self, wall_s: float) -> Dict[str, float]:
        """Share of the traced wall per self-time metric, largest first."""
        shares: Dict[str, float] = defaultdict(float)
        for name, span in self.spans.items():
            shares[SELF_TIME_METRIC[name]] += span.self_s / wall_s if wall_s else 0.0
        return dict(sorted(shares.items(), key=lambda item: -item[1]))
