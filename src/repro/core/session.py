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
  built exactly once per cell, matching the paper's one-off profiling pass.

On top of the caches it exposes the whole public workflow:

* :meth:`Session.run` — one (config, strategy) cell,
* :meth:`Session.ablation` — several strategies on one cell (Fig. 4),
* :meth:`Session.sweep` — a full grid over batch sizes / GPU counts /
  datasets / servers / tasks, returning a typed :class:`SweepResult` with
  speedup tables, best-cell selection and JSON export.  Independent cells
  can execute on a thread or process pool (``backend=``).
* :meth:`Session.tune` — autotuning: search a
  :class:`~repro.tune.space.TuneSpace` for the best candidate under an
  objective, reusing this session's caches across refinement rounds.

Beyond the in-memory caches a session can be bound to two pluggable
substrates:

* ``store=`` — a persistent :class:`~repro.store.store.ExperimentStore`
  (or a path to one).  :meth:`Session.run` hydrates results from the store
  before simulating and writes every fresh simulation through it, so a
  second identical sweep / tune / cluster replay — even in a brand-new
  process — performs **zero** discrete-event simulations.
* ``backend=`` — an execution backend (``"inline"``, ``"thread"``,
  ``"process"`` or any :func:`~repro.store.backends.register_backend`
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
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.ablation import ABLATION_STRATEGIES, make_profile
from repro.core.config import ExperimentConfig
from repro.data.dataset import DatasetSpec
from repro.errors import ConfigurationError, ReproError
from repro.hardware.server import ServerSpec
from repro.models.pairs import DistillationPair
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.parallel.executor import ExecutionResult, GraphTemplates, ScheduleExecutor
from repro.parallel.profiler import ProfileTable
from repro.parallel.registry import REGISTRY
from repro.store.backends import ExecutionBackend, resolve_backend
from repro.store.keys import run_key
from repro.store.store import ExperimentStore, open_store

PairKey = Tuple[str, str]
ServerKey = Tuple[str, int]
ProfileKey = Tuple[str, str, str, int, int]
ExecutorKey = Tuple[str, str, str, int, int]


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
        from repro.core.ablation import PIPE_BD_STRATEGY

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
        >>> for _ in range(2):
        ...     _ = session.run(ExperimentConfig(batch_size=128, simulated_steps=4))
        >>> (session.stats.profile_builds, session.stats.profile_hits)
        (1, 1)
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
    CACHES = ("pair", "server", "dataset", "executor", "profile", "store")

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
    session across sweeps (or threads, via ``sweep(backend="thread")``)
    returns bit-identical results to a fresh session per call.

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
        """The profile table for this cell, built exactly once per cell."""
        key: ProfileKey = config.cell_key()
        with self._lock:
            if key not in self._profiles:
                with span("session.profile_table", cell=config.cell_label()):
                    self._profiles[key] = make_profile(
                        self.pair(config), self.server(config), config.batch_size
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
        session's cached profile table (it is not cached back).

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
            if planner.requires_profile and profile is None:
                profile = self.profile(config)
            with span("session.plan", strategy=name):
                plan = planner.build(
                    self.pair(config),
                    self.server(config),
                    config.batch_size,
                    self.dataset(config),
                    profile=profile,
                )
            with span("session.execute", strategy=name):
                result = self.executor(config).execute(plan)
            with self._lock:
                self.stats.runs += 1
            if use_store:
                result.record = result.to_dict()
                self.put_run(config, name, result.record)
            self._runs_simulated.inc()
            self._run_seconds.observe(time.perf_counter() - started)
            return result

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
        default (``Session(backend=...)``) applies otherwise.  The thread
        backend prewarms caches serially before its pool starts, so the
        exactly-once profile guarantee holds; the ``process`` backend fans
        cells out to worker interpreters sharing this session's on-disk
        store.

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

        chosen = self._sweep_backend(backend, max_workers)
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

    def _sweep_backend(
        self,
        backend: Union[str, ExecutionBackend, None],
        max_workers: Optional[int],
    ) -> ExecutionBackend:
        """Resolve the backend one sweep call should use.

        An explicit ``backend=`` wins over the session default.
        ``max_workers`` specialises the pool-based backends without
        mutating the registered singletons.
        """
        from repro.store.backends import ProcessBackend, ThreadBackend

        resolved = self._backend if backend is None else resolve_backend(backend)
        if max_workers is not None:
            if resolved.name == "thread":
                resolved = ThreadBackend(max_workers=max_workers)
            elif resolved.name == "process":
                resolved = ProcessBackend(max_workers=max_workers)
        return resolved

    # ------------------------------------------------------------------ #
    # Autotuning
    # ------------------------------------------------------------------ #
    def tune(
        self,
        space=None,
        *,
        objective="epoch_time",
        driver="successive-halving",
        budget: int = 64,
        seed: int = 0,
        simulated_steps: int = 10,
        throughput_jobs: int = 12,
        faults=None,
        elastic: str = "restart",
        fault_seed: int = 0,
        tenants=None,
        price_curve=None,
        slo_deadline_slack: float = 900.0,
    ):
        """Search a tuning space for the best candidate under an objective.

        Thin delegate to :func:`repro.tune.tuner.tune` bound to this
        session, so tuning shares every cache (pairs, profiles, executors)
        with prior runs and sweeps — refinement rounds only re-simulate
        changed cells.  See ``docs/TUNING.md`` for the full guide.

        Example:
            >>> from repro import Session
            >>> from repro.tune import TuneSpace
            >>> session = Session()
            >>> result = session.tune(
            ...     TuneSpace(strategies=("DP", "TR+DPU+AHD"),
            ...               batch_sizes=(128, 256), gpu_counts=(2,)),
            ...     budget=4, simulated_steps=4)
            >>> result.best.point.strategy
            'TR+DPU+AHD'
        """
        from repro.tune.tuner import tune as run_tune

        get_registry().counter(
            "repro_session_tunes_total", "Session.tune searches"
        ).inc(driver=str(driver))
        with span("session.tune", driver=str(driver), budget=budget):
            return run_tune(
                space,
                objective=objective,
                driver=driver,
                budget=budget,
                seed=seed,
                session=self,
                simulated_steps=simulated_steps,
                throughput_jobs=throughput_jobs,
                faults=faults,
                elastic=elastic,
                fault_seed=fault_seed,
                tenants=tenants,
                price_curve=price_curve,
                slo_deadline_slack=slo_deadline_slack,
            )
