"""Fault models: seeded failure injection and recovery-cost accounting.

Real fleets serving heavy traffic are never perfectly reliable — nodes
crash, cloud schedulers preempt spot capacity, and stragglers silently run
hot paths at half speed.  This module gives the cluster simulator a
first-class, *deterministic* vocabulary for all three:

* :class:`FaultEvent` — one concrete incident (``crash`` / ``preempt`` /
  ``straggler``) pinned to a node and a simulated time;
* :class:`FaultTrace` — an ordered, JSON-serialisable sequence of events,
  so real or hand-crafted incident logs replay through the exact same
  simulator path as generated ones (mirroring
  :meth:`~repro.cluster.workload.Workload.load`);
* :class:`FaultModel` — a seeded generator drawing fault arrivals from a
  Poisson (memoryless) or Weibull (bursty, ``shape < 1``) process and
  materialising them into a concrete trace;
* :class:`RecoveryModel` — the checkpoint/restart cost model, parameterised
  per strategy: *decoupled* strategies (DPU/LS-style independent
  sub-pipelines) lose only the failed rank's progress since its own
  checkpoint, while synchronous strategies must replay the whole gang's
  critical path since the last global checkpoint.

Everything here is pure data + seeded ``random.Random`` — the same model,
cluster and seed always produce a byte-identical trace, which is what the
golden regression tests under ``tests/cluster/traces/`` pin.

Documented in ``docs/FAULTS.md``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ConfigurationError
from repro.parallel.registry import REGISTRY

#: The fault kinds the simulator understands.
FAULT_KINDS: Tuple[str, ...] = ("crash", "preempt", "straggler")


def strategy_is_decoupled(strategy: str) -> bool:
    """Whether a strategy's sub-pipelines checkpoint and recover independently.

    Reads the registered strategy's ``decoupled_recovery`` attribute (all
    built-ins declare it); a strategy registered without one is coupled.

    Example:
        >>> from repro.cluster.faults import strategy_is_decoupled
        >>> strategy_is_decoupled("TR+DPU+AHD"), strategy_is_decoupled("DP")
        (True, False)
    """
    return bool(getattr(REGISTRY.get(strategy), "decoupled_recovery", False))


def recovery_fraction(strategy: str, gpus: int) -> float:
    """Fraction of since-checkpoint progress a fault destroys.

    A synchronous gang (DP, plain TR) replays its whole critical path from
    the last global checkpoint, so the fraction is ``1.0``.  A decoupled
    gang (DPU, LS, IR) re-runs only the failed rank's sub-pipeline — its
    peers resume from their own checkpoints — so the fraction shrinks with
    the gang size.

    Example:
        >>> from repro.cluster.faults import recovery_fraction
        >>> recovery_fraction("DP", 4), recovery_fraction("TR+DPU+AHD", 4)
        (1.0, 0.25)
    """
    if gpus < 1:
        raise ConfigurationError(f"recovery fraction needs gpus >= 1, got {gpus}")
    if strategy_is_decoupled(strategy):
        return 1.0 / gpus
    return 1.0


@dataclass(frozen=True)
class FaultEvent:
    """One concrete incident on one node at one simulated instant.

    ``gpus`` is the number of GPUs affected (``None`` = the whole node);
    ``duration`` is the outage length for ``preempt`` and the slowdown
    window for ``straggler``; ``factor`` is the straggler's slowdown
    multiplier (``2.0`` = half speed).

    Example:
        >>> from repro.cluster.faults import FaultEvent
        >>> FaultEvent(time=30.0, kind="preempt", node="a6000-0",
        ...            gpus=2, duration=120.0).kind
        'preempt'
    """

    time: float
    kind: str
    node: str
    gpus: Optional[int] = None
    duration: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise ConfigurationError(f"fault time must be finite and >= 0, got {self.time}")
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known kinds: {FAULT_KINDS}"
            )
        if not self.node:
            raise ConfigurationError("fault node must be non-empty")
        if self.gpus is not None and self.gpus < 1:
            raise ConfigurationError(
                f"fault gpus must be >= 1 (or None for the whole node), "
                f"got {self.gpus}"
            )
        if self.kind in ("preempt", "straggler") and not (
            math.isfinite(self.duration) and self.duration > 0
        ):
            raise ConfigurationError(
                f"{self.kind} faults need a finite duration > 0, got {self.duration}"
            )
        if self.kind == "straggler" and not (
            math.isfinite(self.factor) and self.factor > 1.0
        ):
            raise ConfigurationError(
                f"straggler factor must be > 1.0 (a slowdown), got {self.factor}"
            )

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "kind": self.kind,
            "node": self.node,
            "gpus": self.gpus,
            "duration": self.duration,
            "factor": self.factor,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultEvent":
        return cls(
            time=float(payload["time"]),
            kind=payload["kind"],
            node=payload["node"],
            gpus=(int(payload["gpus"]) if payload.get("gpus") is not None else None),
            duration=float(payload.get("duration", 0.0)),
            factor=float(payload.get("factor", 1.0)),
        )


@dataclass(frozen=True)
class FaultTrace:
    """A time-ordered incident log the simulator replays deterministically.

    Example:
        >>> from repro.cluster.faults import FaultEvent, FaultTrace
        >>> trace = FaultTrace(name="demo", events=(
        ...     FaultEvent(time=10.0, kind="crash", node="a6000-0", gpus=2),))
        >>> FaultTrace.from_json(trace.to_json()) == trace
        True
    """

    name: str
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        times = [event.time for event in self.events]
        if times != sorted(times):
            raise ConfigurationError(
                f"fault trace {self.name!r} events must be sorted by time"
            )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def describe(self) -> str:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        parts = ", ".join(f"{count} {kind}" for kind, count in sorted(counts.items()))
        return f"{self.name}: {len(self.events)} events ({parts or 'none'})"

    # ------------------------------------------------------------------ #
    # JSON replay (mirrors Workload.save/load)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {"name": self.name, "events": [event.to_dict() for event in self.events]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultTrace":
        events = sorted(
            (FaultEvent.from_dict(event) for event in payload["events"]),
            key=lambda event: event.time,
        )
        return cls(name=payload.get("name", "trace"), events=tuple(events))

    @classmethod
    def from_json(cls, text: str) -> "FaultTrace":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        target = Path(path)
        target.write_text(self.to_json())
        return target

    @classmethod
    def load(cls, path: str | Path) -> "FaultTrace":
        return cls.from_json(Path(path).read_text())


@dataclass(frozen=True)
class FaultModel:
    """A seeded fault-arrival generator over a cluster.

    Rates are fleet-wide events per simulated second; each kind with a
    positive rate draws its own arrival process (``arrival="poisson"`` for
    memoryless exponential gaps, ``"weibull"`` for bursty clustered
    arrivals when ``weibull_shape < 1``) and lands each event on a node
    drawn uniformly from the fleet.  The same model, cluster, horizon and
    seed always produce the same trace.

    Example:
        >>> from repro.cluster.faults import FaultModel
        >>> from repro.cluster.spec import default_cluster
        >>> model = FaultModel(preempt_rate=0.01)
        >>> first = model.trace(default_cluster(), horizon=500.0, seed=7)
        >>> second = model.trace(default_cluster(), horizon=500.0, seed=7)
        >>> first == second
        True
    """

    name: str = "custom"
    crash_rate: float = 0.0
    preempt_rate: float = 0.0
    straggler_rate: float = 0.0
    crash_gpus: Optional[int] = None
    preempt_gpus: Optional[int] = None
    preempt_duration: float = 120.0
    straggler_factor: float = 2.0
    straggler_duration: float = 180.0
    arrival: str = "poisson"
    weibull_shape: float = 0.7
    #: Seconds past the last workload arrival the generated trace covers
    #: (service tails keep the fleet busy after arrivals stop).
    horizon_slack: float = 3600.0

    def __post_init__(self) -> None:
        for rate_name in ("crash_rate", "preempt_rate", "straggler_rate"):
            rate = getattr(self, rate_name)
            if not math.isfinite(rate) or rate < 0:
                raise ConfigurationError(f"{rate_name} must be finite and >= 0, got {rate}")
        if self.arrival not in ("poisson", "weibull"):
            raise ConfigurationError(
                f"unknown arrival process {self.arrival!r}; "
                "known: 'poisson', 'weibull'"
            )
        if not (math.isfinite(self.weibull_shape) and self.weibull_shape > 0):
            raise ConfigurationError("weibull_shape must be finite and > 0")
        durations = (self.preempt_duration, self.straggler_duration)
        if not all(math.isfinite(d) and d > 0 for d in durations):
            raise ConfigurationError("fault durations must be finite and > 0")
        if not (math.isfinite(self.straggler_factor) and self.straggler_factor > 1.0):
            raise ConfigurationError("straggler_factor must be finite and > 1.0")
        if not math.isfinite(self.horizon_slack) or self.horizon_slack < 0:
            raise ConfigurationError("horizon_slack must be finite and >= 0")

    def _gaps(self, rng: random.Random, rate: float) -> Iterator[float]:
        """Inter-arrival gaps at ``rate`` events/sec for this model's process."""
        if self.arrival == "poisson":
            while True:
                yield rng.expovariate(rate)
        else:
            # Weibull gaps with the same mean as the exponential at `rate`:
            # scale = mean / Gamma(1 + 1/shape); shape < 1 clusters events.
            scale = (1.0 / rate) / math.gamma(1.0 + 1.0 / self.weibull_shape)
            while True:
                yield rng.weibullvariate(scale, self.weibull_shape)

    def trace(self, cluster, horizon: float, seed: int = 0) -> FaultTrace:
        """Materialise a concrete trace over ``[0, horizon)`` seconds.

        ``cluster`` is a :class:`~repro.cluster.spec.ClusterSpec`; events
        land on its nodes uniformly at random (seeded).  Kinds are
        generated in a fixed order and merge-sorted by time with a stable
        tie-break, so the trace is deterministic.
        """
        if horizon <= 0:
            raise ConfigurationError(f"fault horizon must be > 0, got {horizon}")
        node_names = [node.name for node in cluster.nodes]
        events = []
        kinds = (
            ("crash", self.crash_rate),
            ("preempt", self.preempt_rate),
            ("straggler", self.straggler_rate),
        )
        for kind, rate in kinds:
            if rate <= 0:
                continue
            # String seeds hash deterministically (sha512) across processes;
            # tuple seeds would fall back to PYTHONHASHSEED-salted hash().
            rng = random.Random(f"{seed}:{kind}:{self.name}")
            now = 0.0
            for gap in self._gaps(rng, rate):
                now += gap
                if now >= horizon:
                    break
                node = rng.choice(node_names)
                if kind == "crash":
                    events.append(
                        FaultEvent(time=now, kind=kind, node=node, gpus=self.crash_gpus)
                    )
                elif kind == "preempt":
                    events.append(
                        FaultEvent(
                            time=now,
                            kind=kind,
                            node=node,
                            gpus=self.preempt_gpus,
                            duration=self.preempt_duration,
                        )
                    )
                else:
                    events.append(
                        FaultEvent(
                            time=now,
                            kind=kind,
                            node=node,
                            duration=self.straggler_duration,
                            factor=self.straggler_factor,
                        )
                    )
        events.sort(key=lambda event: (event.time, event.kind, event.node))
        return FaultTrace(
            name=f"{self.name}(seed={seed}, horizon={horizon:g})",
            events=tuple(events),
        )

    def to_dict(self) -> dict:
        """JSON view of every generation parameter (store keys embed this)."""
        return {
            "name": self.name,
            "crash_rate": self.crash_rate,
            "preempt_rate": self.preempt_rate,
            "straggler_rate": self.straggler_rate,
            "crash_gpus": self.crash_gpus,
            "preempt_gpus": self.preempt_gpus,
            "preempt_duration": self.preempt_duration,
            "straggler_factor": self.straggler_factor,
            "straggler_duration": self.straggler_duration,
            "arrival": self.arrival,
            "weibull_shape": self.weibull_shape,
            "horizon_slack": self.horizon_slack,
        }


#: Named fault scenarios usable anywhere a model is accepted (CLI ``--faults``).
FAULT_PRESETS: Dict[str, FaultModel] = {
    # Clustered partial-node spot reclaims: the scenario where elastic
    # `shrink` shines, because half the node always survives the reclaim.
    # Rates are deliberately aggressive (one reclaim per ~50 fleet-seconds)
    # so the scenario bites even on short simulated makespans.
    "bursty-preemption": FaultModel(
        name="bursty-preemption",
        preempt_rate=0.02,
        preempt_gpus=2,
        preempt_duration=300.0,
        arrival="weibull",
        weibull_shape=0.6,
    ),
    # Rare but permanent whole-node losses plus occasional slow nodes.
    "flaky-fleet": FaultModel(
        name="flaky-fleet",
        crash_rate=0.0005,
        straggler_rate=0.002,
        straggler_factor=2.0,
        straggler_duration=300.0,
    ),
}


def parse_fault_spec(spec: str) -> FaultModel:
    """Parse a CLI fault spec: a preset name or ``kind:rate[,kind:rate...]``.

    Example:
        >>> from repro.cluster.faults import parse_fault_spec
        >>> parse_fault_spec("bursty-preemption").preempt_gpus
        2
        >>> parse_fault_spec("crash:0.01,straggler:0.002").crash_rate
        0.01
    """
    spec = spec.strip()
    if not spec:
        raise ConfigurationError("empty fault spec")
    if spec in FAULT_PRESETS:
        return FAULT_PRESETS[spec]
    rates: Dict[str, float] = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        kind, sep, rate_text = entry.partition(":")
        if not sep or kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"bad fault spec entry {entry!r}; use a preset "
                f"({sorted(FAULT_PRESETS)}) or '<kind>:<rate>' with kind in "
                f"{FAULT_KINDS}"
            )
        try:
            rate = float(rate_text)
        except ValueError:
            raise ConfigurationError(
                f"bad fault rate in spec entry {entry!r}"
            ) from None
        if not math.isfinite(rate) or rate <= 0:
            raise ConfigurationError(
                f"fault rate must be finite and > 0 in entry {entry!r}"
            )
        if kind in rates:
            raise ConfigurationError(f"duplicate fault kind {kind!r} in spec")
        rates[kind] = rate
    if not rates:
        raise ConfigurationError(f"fault spec {spec!r} names no kinds")
    return FaultModel(
        name=spec,
        crash_rate=rates.get("crash", 0.0),
        preempt_rate=rates.get("preempt", 0.0),
        straggler_rate=rates.get("straggler", 0.0),
    )


@dataclass(frozen=True)
class RecoveryModel:
    """Checkpoint/restart costs the simulator charges on every interruption.

    ``checkpoint_interval`` is the cadence (in nominal service seconds) at
    which a running gang persists progress; on a fault the work since the
    last checkpoint is destroyed, scaled by :func:`recovery_fraction` —
    decoupled strategies lose only the failed rank's slice.  The three
    overheads are the fixed setup costs of each elastic action, charged as
    extra service time on the recovering attempt.

    Example:
        >>> from repro.cluster.faults import RecoveryModel
        >>> model = RecoveryModel(checkpoint_interval=100.0)
        >>> model.lost_seconds("DP", gpus=4, progressed=250.0)
        50.0
        >>> model.lost_seconds("TR+DPU+AHD", gpus=4, progressed=250.0)
        12.5
    """

    checkpoint_interval: float = 300.0
    restart_overhead: float = 30.0
    repartition_overhead: float = 10.0
    migration_overhead: float = 20.0

    def __post_init__(self) -> None:
        if self.checkpoint_interval <= 0:
            raise ConfigurationError("checkpoint_interval must be > 0")
        for name in ("restart_overhead", "repartition_overhead", "migration_overhead"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")

    def lost_seconds(self, strategy: str, gpus: int, progressed: float) -> float:
        """Nominal service seconds destroyed by a fault after ``progressed``."""
        if progressed <= 0:
            return 0.0
        since_checkpoint = progressed % self.checkpoint_interval
        return recovery_fraction(strategy, gpus) * since_checkpoint

    def overhead(self, action: str) -> float:
        """Fixed recovery overhead (nominal seconds) of one elastic action."""
        overheads = {
            "restart": self.restart_overhead,
            "shrink": self.repartition_overhead,
            "migrate": self.migration_overhead,
        }
        if action not in overheads:
            raise ConfigurationError(
                f"unknown recovery action {action!r}; known: {sorted(overheads)}"
            )
        return overheads[action]

    def to_dict(self) -> dict:
        return {
            "checkpoint_interval": self.checkpoint_interval,
            "restart_overhead": self.restart_overhead,
            "repartition_overhead": self.repartition_overhead,
            "migration_overhead": self.migration_overhead,
        }


def resolve_faults(
    faults, cluster, workload, seed: int = 0
) -> Optional[FaultTrace]:
    """Coerce a fault argument (trace, model, spec string or None) to a trace.

    Models materialise over a horizon of the workload's arrival span plus
    the model's ``horizon_slack``, so the injection window deterministically
    covers the service tail.
    """
    if faults is None:
        return None
    if isinstance(faults, str):
        faults = parse_fault_spec(faults)
    if isinstance(faults, FaultModel):
        horizon = workload.duration + faults.horizon_slack
        return faults.trace(cluster, horizon=horizon, seed=seed)
    if isinstance(faults, FaultTrace):
        return faults
    raise ConfigurationError(
        f"faults must be a FaultTrace, FaultModel, spec string or None, "
        f"got {type(faults).__name__}"
    )
