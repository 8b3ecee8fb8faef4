"""The :class:`Session` facade: cached experiment execution and grid sweeps.

Running a cell from scratch re-materialises the model pair, the server
spec and — far worse — the profile table, which the thousand-cell sweeps
behind Figs. 4–6 cannot afford.  A ``Session`` memoises every expensive
artefact by the config cell that determines it:

* pairs by ``(task, dataset)``,
* server specs by ``(server, num_gpus)``,
* dataset descriptors by ``dataset``,
* executors by ``(pair, server, dataset, simulated_steps)``,
* profile tables by ``(task, dataset, server, num_gpus, batch_size)`` —
  built exactly once per cell, matching the paper's one-off profiling pass,
* plans by ``(strategy object, cell)`` — each scheduling decision is made
  once per cell and reused for every simulated-step count, together with
  its lowering onto graph templates (:meth:`ScheduleExecutor.lower`), so
  each step count only simulates.

On top of the caches it exposes the whole public workflow:

* :meth:`Session.run` — one (config, strategy) cell,
* :meth:`Session.ablation` — several strategies on one cell (Fig. 4),
* :meth:`Session.sweep` — a full grid over batch sizes / GPU counts /
  datasets / servers / tasks, returning a typed :class:`SweepResult` with
  speedup tables, best-cell selection and JSON export.  Independent cells
  can execute on a process pool (``backend=``).

Beyond the in-memory caches a session can be bound to two pluggable
substrates:

* ``store=`` — a persistent :class:`~repro.store.store.ExperimentStore`
  (or a path to one).  :meth:`Session.run` hydrates results from the store
  before simulating and writes every fresh simulation through it, so a
  second identical sweep / tune / cluster replay — even in a brand-new
  process — performs **zero** discrete-event simulations.
* ``backend=`` — an execution backend (``"inline"``, ``"process"`` or
  any :func:`~repro.store.backends.register_backend`
  plugin) deciding where sweep cells execute.

Documented in ``docs/API.md`` (reference), ``docs/CACHING.md`` (store and
backends) and ``docs/ARCHITECTURE.md`` (where the session sits in the
layer map).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import ExperimentConfig
from repro.data.dataset import DatasetSpec
from repro.errors import ConfigurationError, ReproError
from repro.hardware.server import ServerSpec
from repro.models.pairs import DistillationPair
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.parallel.executor import (
    ExecutionResult,
    GraphTemplates,
    LoweredPlan,
    ScheduleExecutor,
)
from repro.parallel.profiler import Profiler, ProfileTable
from repro.parallel.plan import SchedulePlan
from repro.parallel.registry import ABLATION_STRATEGIES, PIPE_BD_STRATEGY, REGISTRY, Strategy
from repro.store.backends import ExecutionBackend, resolve_backend
from repro.store.keys import run_key
from repro.store.store import ExperimentStore, open_store

PairKey = Tuple[str, str]
ServerKey = Tuple[str, int]
ProfileKey = Tuple[str, str, str, int, int]
ExecutorKey = Tuple[str, str, str, int, int]
#: A registered strategy object and the cell it planned.  The object, not
#: its name, is the key: a name registered again names a new planner.
PlanKey = Tuple[Strategy, ProfileKey]


@dataclass
class ExperimentSuiteResult:
    """Results of running several strategies on the same experiment cell.

    Example:
        >>> from repro import ExperimentConfig, Session
        >>> config = ExperimentConfig(batch_size=128, simulated_steps=4)
        >>> suite = Session().ablation(config, strategies=("DP", "TR"))
        >>> suite.speedups("DP")["TR"] > 1.0
        True
    """

    config: ExperimentConfig
    results: Dict[str, ExecutionResult] = field(default_factory=dict)

    def result(self, strategy: str) -> ExecutionResult:
        if strategy not in self.results:
            raise ConfigurationError(
                f"strategy {strategy!r} was not run; available: {sorted(self.results)}"
            )
        return self.results[strategy]

    def epoch_times(self) -> Dict[str, float]:
        return {strategy: result.epoch_time for strategy, result in self.results.items()}

    def speedups(self, baseline: str = "DP") -> Dict[str, float]:
        """Speedup of every strategy over the chosen baseline."""
        base = self.result(baseline).epoch_time
        return {
            strategy: base / result.epoch_time for strategy, result in self.results.items()
        }

    def pipe_bd_speedup(self, baseline: str = "DP") -> float:
        """Speedup of the full Pipe-BD configuration over a baseline."""
        return self.speedups(baseline)[PIPE_BD_STRATEGY]

    def to_dict(self) -> dict:
        """JSON-serialisable summary of this cell's results."""
        config = self.config.to_dict()
        # The strategies actually run are the result keys; the config's own
        # strategy field never parameterised the suite and would contradict.
        config.pop("strategy", None)
        return {
            "config": config,
            "results": {
                strategy: result.to_dict() for strategy, result in self.results.items()
            },
        }


@dataclass
class SessionStats:
    """Cache-activity counters, primarily for tests and capacity planning.

    Example:
        >>> from repro import ExperimentConfig, Session
        >>> session = Session()
        >>> for steps in (4, 6):
        ...     _ = session.run(ExperimentConfig(batch_size=128, simulated_steps=steps))
        >>> stats = session.stats
        >>> (stats.profile_builds, stats.plan_builds, stats.plan_hits, stats.runs)
        (1, 1, 1, 2)
    """

    pair_builds: int = 0
    pair_hits: int = 0
    server_builds: int = 0
    server_hits: int = 0
    dataset_builds: int = 0
    dataset_hits: int = 0
    executor_builds: int = 0
    executor_hits: int = 0
    profile_builds: int = 0
    profile_hits: int = 0
    #: Planner searches run (``plan_builds``) and plans reused for another
    #: step count or run of the same cell (``plan_hits``).
    plan_builds: int = 0
    plan_hits: int = 0
    #: Persistent-store traffic: ``store_builds`` counts simulations written
    #: through the store (cold), ``store_hits`` counts results hydrated from
    #: it without simulating (warm).
    store_builds: int = 0
    store_hits: int = 0
    #: Discrete-event simulations actually performed, including those done
    #: by ``process``-backend workers on this session's behalf (store hits
    #: excluded).
    runs: int = 0

    #: Caches with paired build/hit counters, addressable via :meth:`hit_rate`.
    CACHES = ("pair", "server", "dataset", "executor", "profile", "plan", "store")

    def hit_rate(self, cache: str) -> float:
        """Hit fraction for one cache (``"pair"``, ``"profile"``, ...).

        Example:
            >>> from repro.core.session import SessionStats
            >>> SessionStats(profile_builds=1, profile_hits=3).hit_rate("profile")
            0.75
        """
        if cache not in self.CACHES:
            raise ConfigurationError(
                f"unknown cache {cache!r}; known caches: {self.CACHES}"
            )
        builds = getattr(self, f"{cache}_builds")
        hits = getattr(self, f"{cache}_hits")
        total = builds + hits
        return hits / total if total else 0.0

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def snapshot(self) -> dict:
        """A point-in-time copy of every counter (pair with :meth:`delta`)."""
        return dict(self.__dict__)

    def add(self, delta: Mapping[str, int]) -> None:
        """Add counter changes (another session's :meth:`delta`) to these.

        The ``process`` backend adds each worker's delta, so work done in
        worker interpreters shows in the parent session's stats.

        Example:
            >>> from repro.core.session import SessionStats
            >>> stats = SessionStats(plan_builds=1)
            >>> stats.add({"plan_builds": 2, "runs": 3})
            >>> (stats.plan_builds, stats.runs)
            (3, 3)
        """
        for name, change in delta.items():
            setattr(self, name, getattr(self, name) + change)

    def delta(self, before: dict) -> dict:
        """Per-counter change since a :meth:`snapshot`.

        The serve layer brackets each request with snapshot/delta to report
        per-request warm-vs-cold accounting (``delta(...)["runs"] == 0``
        means the request performed zero simulations).

        Example:
            >>> from repro import ExperimentConfig, Session
            >>> session = Session()
            >>> before = session.stats.snapshot()
            >>> _ = session.run(ExperimentConfig(batch_size=128,
            ...                                  simulated_steps=4))
            >>> session.stats.delta(before)["runs"]
            1
        """
        return {
            name: value - before.get(name, 0)
            for name, value in self.__dict__.items()
        }


@dataclass
class SweepResult:
    """Typed result of a :meth:`Session.sweep` grid.

    ``cells`` holds one :class:`ExperimentSuiteResult` per grid point, in
    grid-iteration order; ``strategies`` is the strategy set every cell ran.

    Example:
        >>> from repro import ExperimentConfig, Session
        >>> base = ExperimentConfig(batch_size=128, simulated_steps=4)
        >>> sweep = Session().sweep(base, batch_sizes=(128, 256),
        ...                         strategies=("DP", "TR"))
        >>> (len(sweep), sorted(sweep.axes))
        (2, ['batch_size'])
    """

    base_config: ExperimentConfig
    strategies: Tuple[str, ...]
    cells: Tuple[ExperimentSuiteResult, ...]
    axes: Dict[str, Tuple] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def labels(self) -> Tuple[str, ...]:
        return tuple(cell.config.cell_label() for cell in self.cells)

    def cell(self, **axis_values) -> ExperimentSuiteResult:
        """The unique cell whose config matches every given axis value."""
        matches = [
            cell
            for cell in self.cells
            if all(getattr(cell.config, name) == value for name, value in axis_values.items())
        ]
        if not matches:
            raise ConfigurationError(f"no sweep cell matches {axis_values!r}")
        if len(matches) > 1:
            raise ConfigurationError(
                f"{len(matches)} sweep cells match {axis_values!r}; "
                "constrain more axes (available: "
                f"{sorted(self.axes)})"
            )
        return matches[0]

    # ------------------------------------------------------------------ #
    # Tables and selection
    # ------------------------------------------------------------------ #
    def epoch_times(self) -> Dict[str, Dict[str, float]]:
        """Per-cell epoch times: ``{cell label: {strategy: seconds}}``."""
        return {cell.config.cell_label(): cell.epoch_times() for cell in self.cells}

    def speedup_table(self, baseline: str = "DP") -> Dict[str, Dict[str, float]]:
        """Per-cell speedups over a baseline: ``{cell label: {strategy: x}}``."""
        return {cell.config.cell_label(): cell.speedups(baseline) for cell in self.cells}

    def series(self, strategy: str, axis: str, baseline: str = "DP") -> Dict:
        """Speedup of one strategy along one axis (e.g. Fig. 6's batch axis).

        Requires the axis value to identify each cell uniquely (i.e. every
        other axis is fixed); raises otherwise.
        """
        out: Dict = {}
        for cell in self.cells:
            key = getattr(cell.config, axis)
            if key in out:
                raise ConfigurationError(
                    f"axis {axis!r} does not uniquely identify sweep cells; "
                    f"value {key!r} appears more than once"
                )
            out[key] = cell.speedups(baseline)[strategy]
        return out

    def best_cell(
        self,
        strategy: str,
        key: Callable[[ExecutionResult], float] = lambda result: result.epoch_time,
    ) -> ExperimentSuiteResult:
        """The cell where ``strategy`` minimises ``key`` (default epoch time)."""
        if not self.cells:
            raise ConfigurationError("sweep produced no cells")
        return min(self.cells, key=lambda cell: key(cell.result(strategy)))

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "base_config": self.base_config.to_dict(),
            "strategies": list(self.strategies),
            "axes": {name: list(values) for name, values in self.axes.items()},
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class Session:
    """Cached facade over configuration, planning and simulated execution.

    A session is cheap to create and safe to keep for a whole process; its
    caches only ever hold deterministic, immutable artefacts, so sharing one
    session across sweeps (or across threads: its caches are guarded by
    one lock) returns bit-identical results to a fresh session per call.

    Example:
        >>> from repro import ExperimentConfig, Session
        >>> session = Session()
        >>> result = session.run(ExperimentConfig(batch_size=128,
        ...                                       simulated_steps=4))
        >>> result.epoch_time > 0
        True
    """

    def __init__(
        self,
        store: Union[ExperimentStore, str, Path, None] = None,
        backend: Union[str, ExecutionBackend] = "inline",
    ) -> None:
        self._pairs: Dict[PairKey, DistillationPair] = {}
        self._servers: Dict[ServerKey, ServerSpec] = {}
        self._datasets: Dict[str, DatasetSpec] = {}
        self._executors: Dict[ExecutorKey, ScheduleExecutor] = {}
        self._profiles: Dict[ProfileKey, ProfileTable] = {}
        self._plans: Dict[PlanKey, LoweredPlan] = {}
        self._templates = GraphTemplates()
        self._lock = threading.RLock()
        self.stats = SessionStats()
        self._store = open_store(store)
        self._backend = resolve_backend(backend)
        registry = get_registry()
        runs = registry.counter(
            "repro_session_runs_total",
            "Session.run completions by outcome (simulated vs store_hit)",
        )
        self._runs_simulated = runs.labels(outcome="simulated")
        self._runs_store_hit = runs.labels(outcome="store_hit")
        self._run_seconds = registry.histogram(
            "repro_session_run_seconds", "Session.run wall time"
        ).labels()

    @property
    def store(self) -> Optional[ExperimentStore]:
        """The persistent experiment store this session hydrates from, if any."""
        return self._store

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend sweeps use unless overridden per call."""
        return self._backend

    # ------------------------------------------------------------------ #
    # Cached materialisation
    # ------------------------------------------------------------------ #
    def pair(self, config: ExperimentConfig) -> DistillationPair:
        key: PairKey = (config.task, config.dataset)
        with self._lock:
            if key not in self._pairs:
                self._pairs[key] = config.build_pair()
                self.stats.pair_builds += 1
            else:
                self.stats.pair_hits += 1
            return self._pairs[key]

    def server(self, config: ExperimentConfig) -> ServerSpec:
        key: ServerKey = (config.server, config.num_gpus)
        with self._lock:
            if key not in self._servers:
                self._servers[key] = config.build_server()
                self.stats.server_builds += 1
            else:
                self.stats.server_hits += 1
            return self._servers[key]

    def dataset(self, config: ExperimentConfig) -> DatasetSpec:
        with self._lock:
            if config.dataset not in self._datasets:
                self._datasets[config.dataset] = config.build_dataset()
                self.stats.dataset_builds += 1
            else:
                self.stats.dataset_hits += 1
            return self._datasets[config.dataset]

    def executor(self, config: ExperimentConfig) -> ScheduleExecutor:
        key: ExecutorKey = (
            config.task,
            config.dataset,
            config.server,
            config.num_gpus,
            config.simulated_steps,
        )
        with self._lock:
            if key not in self._executors:
                self._executors[key] = ScheduleExecutor(
                    pair=self.pair(config),
                    server=self.server(config),
                    dataset=self.dataset(config),
                    simulated_steps=config.simulated_steps,
                    templates=self._templates,
                )
                self.stats.executor_builds += 1
            else:
                self.stats.executor_hits += 1
            return self._executors[key]

    def profile(self, config: ExperimentConfig) -> ProfileTable:
        """The profile table for this cell, built exactly once per cell.

        It covers every batch size any planner may request: the LS baseline
        scores blocks at the full batch size, and the pipeline planners use
        the per-device micro-batch sizes, which the profiler's
        ``feasible_batches`` already covers.
        """
        key: ProfileKey = config.cell_key()
        with self._lock:
            if key not in self._profiles:
                with span("session.profile_table", cell=config.cell_label()):
                    profiler = Profiler(pair=self.pair(config), server=self.server(config))
                    self._profiles[key] = profiler.profile(
                        global_batch=config.batch_size,
                        extra_batches=(config.batch_size,),
                    )
                self.stats.profile_builds += 1
            else:
                self.stats.profile_hits += 1
            return self._profiles[key]

    def clear(self) -> None:
        """Drop every cached artefact (stats are kept)."""
        with self._lock:
            self._pairs.clear()
            self._servers.clear()
            self._datasets.clear()
            self._executors.clear()
            self._profiles.clear()
            self._plans.clear()
            self._templates.clear()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        config: ExperimentConfig,
        strategy: Optional[str] = None,
        profile: Optional[ProfileTable] = None,
    ) -> ExecutionResult:
        """Run one (config, strategy) cell and return its execution result.

        ``strategy`` overrides ``config.strategy``; ``profile`` overrides the
        session's cached profile table (it is not cached back).  The plan is
        built and lowered once per (registered strategy object, cell) and
        reused for every step count (``stats.plan_builds`` / ``plan_hits``);
        a ``profile`` override plans and lowers afresh and leaves the stored
        plans alone.

        With a persistent store attached, a previously simulated cell is
        hydrated straight from disk (``stats.store_hits``) without building
        a plan or touching the simulator; fresh simulations are written
        through the store (``stats.store_builds``).  Either way the result
        keeps the store document in ``result.record``, which its
        ``to_dict()`` returns as is.  A stored record that does not hydrate
        raises :class:`~repro.errors.StoreError` naming the record.  An
        explicit ``profile`` override bypasses the store entirely — a
        custom profile changes the plan, so its result must be neither
        served from nor written to the shared cache.

        Example:
            >>> from repro import ExperimentConfig, Session
            >>> config = ExperimentConfig(batch_size=128, simulated_steps=4)
            >>> Session().run(config, strategy="DP").strategy
            'DP'
        """
        name = strategy if strategy is not None else config.strategy
        planner = REGISTRY.get(name)
        use_store = self._store is not None and profile is None
        started = time.perf_counter()
        with span("session.run", strategy=name, cell=config.cell_label()):
            if use_store:
                key = run_key(config, name)
                cached = self._store.get("run", key)
                if cached is not None:
                    try:
                        result = ExecutionResult.from_dict(cached)
                    except (ReproError, LookupError, TypeError, ValueError) as error:
                        raise self._store.malformed("run", key, error) from error
                    with self._lock:
                        self.stats.store_hits += 1
                    self._runs_store_hit.inc()
                    self._run_seconds.observe(time.perf_counter() - started)
                    return result
            executor = self.executor(config)
            lowered = self._plan(config, planner, profile, executor)
            with span("session.execute", strategy=name):
                result = executor.execute(lowered)
            with self._lock:
                self.stats.runs += 1
            if use_store:
                result.record = result.to_dict()
                self.put_run(config, name, result.record)
            self._runs_simulated.inc()
            self._run_seconds.observe(time.perf_counter() - started)
            return result

    def _plan(
        self,
        config: ExperimentConfig,
        planner: Strategy,
        profile: Optional[ProfileTable],
        executor: ScheduleExecutor,
    ) -> LoweredPlan:
        """The planner's plan for this cell, lowered, made once per (planner, cell).

        Neither the plan nor its lowering depends on the simulated steps.
        An explicit ``profile`` override plans and lowers afresh and is not
        kept.  Planning and lowering run outside the session lock (the first
        lowering of a shape builds its graph template); when two threads
        race on one cell, the first to publish wins and counts the build,
        and the other counts a hit, as if it had come second.
        """
        if profile is not None:
            return executor.lower(self._build_plan(config, planner, profile))
        key: PlanKey = (planner, config.cell_key())
        with self._lock:
            lowered = self._plans.get(key)
            if lowered is not None:
                self.stats.plan_hits += 1
                return lowered
        if planner.requires_profile:
            profile = self.profile(config)
        built = executor.lower(self._build_plan(config, planner, profile))
        with self._lock:
            lowered = self._plans.setdefault(key, built)
            if lowered is built:
                self.stats.plan_builds += 1
            else:
                self.stats.plan_hits += 1
        return lowered

    def _build_plan(
        self, config: ExperimentConfig, planner: Strategy, profile: Optional[ProfileTable]
    ) -> SchedulePlan:
        with span("session.plan", strategy=planner.name):
            return planner.build(
                self.pair(config),
                self.server(config),
                config.batch_size,
                self.dataset(config),
                profile=profile,
            )

    # ------------------------------------------------------------------ #
    # Store plumbing (used by run() and the execution backends)
    # ------------------------------------------------------------------ #
    def in_store(self, config: ExperimentConfig, strategy: str) -> bool:
        """Whether the store already holds this (cell, strategy, steps) run."""
        if self._store is None:
            return False
        return self._store.contains("run", run_key(config, strategy))

    def put_run(self, config: ExperimentConfig, strategy: str, payload: dict) -> None:
        """Write one run record through the store (no-op without a store)."""
        if self._store is None:
            return
        self._store.put("run", run_key(config, strategy), payload)
        with self._lock:
            self.stats.store_builds += 1

    def ablation(
        self,
        config: ExperimentConfig,
        strategies: Sequence[str] = ABLATION_STRATEGIES,
    ) -> ExperimentSuiteResult:
        """Run several strategies on the same experiment cell (paper Fig. 4).

        The profile table is computed once and shared by every strategy,
        exactly as Pipe-BD's one-off profiling pass is shared by its
        scheduling decisions.

        Example:
            >>> from repro import ExperimentConfig, Session
            >>> config = ExperimentConfig(batch_size=128, simulated_steps=4)
            >>> suite = Session().ablation(config, strategies=("DP", "LS"))
            >>> sorted(suite.results)
            ['DP', 'LS']
        """
        strategies = tuple(strategies)
        for strategy in strategies:
            REGISTRY.get(strategy)  # fail fast with the known-strategy list
        suite = ExperimentSuiteResult(config=config)
        for strategy in strategies:
            suite.results[strategy] = self.run(config, strategy=strategy)
        return suite

    # ------------------------------------------------------------------ #
    # Grid sweeps
    # ------------------------------------------------------------------ #
    def sweep(
        self,
        base_config: ExperimentConfig,
        *,
        batch_sizes: Optional[Sequence[int]] = None,
        num_gpus: Optional[Sequence[int]] = None,
        datasets: Optional[Sequence[str]] = None,
        servers: Optional[Sequence[str]] = None,
        tasks: Optional[Sequence[str]] = None,
        strategies: Optional[Sequence[str]] = None,
        max_workers: Optional[int] = None,
        backend: Union[str, ExecutionBackend, None] = None,
    ) -> SweepResult:
        """Evaluate a strategy set over the grid of the given axes.

        Every axis defaults to the single value in ``base_config``; the grid
        is the cartesian product of the provided axes.  Cells execute on an
        execution backend: ``backend=`` overrides per call, and the session
        default (``Session(backend=...)``) applies otherwise.  The
        ``process`` backend fans cells out to worker interpreters sharing
        this session's on-disk store; ``max_workers`` sizes its pool
        without changing the registered backend.

        Example:
            >>> from repro import ExperimentConfig, Session
            >>> base = ExperimentConfig(batch_size=128, simulated_steps=4)
            >>> sweep = Session().sweep(base, num_gpus=(2, 4),
            ...                         strategies=("TR",))
            >>> len(sweep.cells)
            2
        """
        def axis(name: str, values: Optional[Sequence]) -> Tuple:
            if values is None:
                return (getattr(base_config, name),)
            values = tuple(values)
            if not values:
                raise ConfigurationError(
                    f"sweep axis {name!r} is empty; pass None to keep the base "
                    "config's value"
                )
            return values

        axes: Dict[str, Tuple] = {
            "batch_size": axis("batch_size", batch_sizes),
            "num_gpus": axis("num_gpus", num_gpus),
            "dataset": axis("dataset", datasets),
            "server": axis("server", servers),
            "task": axis("task", tasks),
        }
        strategy_set = (
            tuple(strategies) if strategies is not None else (base_config.strategy,)
        )
        if not strategy_set:
            raise ConfigurationError("sweep needs at least one strategy")
        for strategy in strategy_set:
            REGISTRY.get(strategy)

        names = tuple(axes)
        configs: List[ExperimentConfig] = [
            replace(base_config, **dict(zip(names, values)))
            for values in itertools.product(*(axes[name] for name in names))
        ]

        chosen = resolve_backend(self._backend if backend is None else backend, max_workers)
        tasks = [
            (config, strategy) for config in configs for strategy in strategy_set
        ]
        get_registry().counter(
            "repro_session_sweeps_total", "Session.sweep grid evaluations"
        ).inc(backend=chosen.name)
        with span(
            "session.sweep",
            cells=len(configs),
            tasks=len(tasks),
            backend=chosen.name,
        ):
            results = chosen.run_cells(self, tasks)
        if len(results) != len(tasks):
            raise ConfigurationError(
                f"backend {chosen.name!r} returned {len(results)} results for "
                f"{len(tasks)} tasks"
            )
        cells_list: List[ExperimentSuiteResult] = []
        flat = iter(results)
        for config in configs:
            suite = ExperimentSuiteResult(config=config)
            for strategy in strategy_set:
                suite.results[strategy] = next(flat)
            cells_list.append(suite)
        cells = tuple(cells_list)

        return SweepResult(
            base_config=base_config,
            strategies=strategy_set,
            cells=cells,
            axes={name: values for name, values in axes.items() if len(values) > 1},
        )
