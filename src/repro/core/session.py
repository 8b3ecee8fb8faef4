"""The :class:`Session` facade: cached experiment execution and grid sweeps.

Running a cell from scratch re-materialises the model pair, the server
spec and — far worse — the profile table, which the thousand-cell sweeps
behind Figs. 4–6 cannot afford.  A ``Session`` memoises every expensive
artefact by the config cell that determines it:

* pairs by ``(task, dataset)``,
* server specs by ``(server, num_gpus)``,
* executors by ``(pair, server, dataset, simulated_steps)``,
* profile tables by ``(task, dataset, server, num_gpus, batch_size)`` —
  built once per cell while kept, matching the paper's one-off profiling pass,
* plans by ``(strategy object, cell)`` — each scheduling decision is made
  once per cell and reused for every simulated-step count, together with
  its lowering onto graph templates (:meth:`ScheduleExecutor.lower`), so
  each step count only simulates,
* warm results by the run they answer — each record read from the store
  is parsed and validated once (see :meth:`Session.run`).

Every table is a :class:`~repro.memo.Memo` of at most :data:`MEMO_ENTRIES`
entries, kept by one rule: look the key up, build a miss outside the lock,
keep the first value published.  An entry dropped past the bound
(``stats.evictions``) is built again when next asked for, to the same bytes.

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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import ExperimentConfig
from repro.data.dataset import DatasetSpec
from repro.errors import ConfigurationError, ReproError
from repro.hardware.server import ServerSpec
from repro.memo import Memo
from repro.models.pairs import DistillationPair
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.parallel.executor import (
    PEAK_MEMORY_FIELDS,
    ExecutionResult,
    GraphTemplates,
    LoweredPlan,
    ScheduleExecutor,
)
from repro.parallel.profiler import Profiler, ProfileTable
from repro.parallel.registry import ABLATION_STRATEGIES, PIPE_BD_STRATEGY, REGISTRY, Strategy
from repro.store.backends import ExecutionBackend, resolve_backend
from repro.store.keys import run_key
from repro.store.store import ExperimentStore, open_store

#: Most entries each session table keeps: over three times the 1152 warm
#: results a serve-warm pass of the whole plan grid keeps.
MEMO_ENTRIES = 4096
#: The config fields a sweep axis may name: those that tell cells apart.
_AXIS_FIELDS = frozenset(
    config_field.name for config_field in fields(ExperimentConfig) if config_field.compare
)


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

    def speedup(self, strategy: str, baseline: str = "DP") -> float:
        """Speedup of one strategy over a baseline; both must have run."""
        return self.result(baseline).epoch_time / self.result(strategy).epoch_time

    def speedups(self, baseline: str = "DP") -> Dict[str, float]:
        """Speedup of every strategy over the chosen baseline."""
        return {strategy: self.speedup(strategy, baseline) for strategy in self.results}

    def pipe_bd_speedup(self, baseline: str = "DP") -> float:
        """Speedup of the full Pipe-BD configuration over a baseline."""
        return self.speedup(PIPE_BD_STRATEGY, baseline)

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
    #: Entries the session's tables dropped past :data:`MEMO_ENTRIES`, and
    #: shapes its template table dropped past
    #: :data:`~repro.parallel.executor.HELD_TEMPLATE_SHAPES` (counted as the
    #: run that dropped them ends).
    evictions: int = 0

    #: Caches with paired build/hit counters, addressable via :meth:`hit_rate`.
    CACHES = ("pair", "server", "executor", "profile", "plan", "store")

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
        """Per-counter change since a :meth:`to_dict` copy.

        The serve layer brackets each request with snapshot/delta to report
        per-request warm-vs-cold accounting (``delta(...)["runs"] == 0``
        means the request performed zero simulations).

        Example:
            >>> from repro import ExperimentConfig, Session
            >>> session = Session()
            >>> before = session.stats.to_dict()
            >>> _ = session.run(ExperimentConfig(batch_size=128,
            ...                                  simulated_steps=4))
            >>> session.stats.delta(before)["runs"]
            1
        """
        return {name: value - before.get(name, 0) for name, value in self.__dict__.items()}


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

        ``axis`` is a compared field of :class:`ExperimentConfig` (not
        ``metadata``), and its value must identify each cell uniquely (i.e.
        every other axis is fixed); raises :class:`ConfigurationError`
        otherwise, or when ``strategy`` or ``baseline`` did not run.
        """
        if axis not in _AXIS_FIELDS:
            raise ConfigurationError(
                f"unknown sweep axis {axis!r}; swept axes: {sorted(self.axes)}"
            )
        out: Dict = {}
        for cell in self.cells:
            key = getattr(cell.config, axis)
            if key in out:
                raise ConfigurationError(
                    f"axis {axis!r} does not uniquely identify sweep cells; "
                    f"value {key!r} appears more than once"
                )
            out[key] = cell.speedup(strategy, baseline)
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
    caches only ever hold deterministic artefacts, which callers treat as
    read-only, so sharing one session across sweeps (or across threads: its
    caches are guarded by one lock, which no build holds) returns
    bit-identical results to a fresh session per call.

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
        # A table per cache, and the fields the warm results of a (strategy, cell) share.
        self._memos = {cache: Memo(MEMO_ENTRIES) for cache in (*SessionStats.CACHES, "warm_cell")}
        self._templates = GraphTemplates()
        self._template_evictions = 0
        self._warm_evictions = 0
        self._lock = threading.Lock()
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
    def _kept(self, cache: str, key: Hashable, build: Callable, builds: str = ""):
        """The value the ``cache`` table keeps under ``key``, built by ``build()`` on a miss.

        The one rule of every session table: look the key up, build a miss
        outside the lock, keep the first value published (threads racing one
        key all return it).  A hit or a lost race counts in ``{cache}_hits``,
        a kept build in ``builds`` or ``{cache}_builds``; None is not kept.
        """
        memo, hits = self._memos[cache], f"{cache}_hits"
        with self._lock:
            value = memo.get(key)
            if value is not None:
                setattr(self.stats, hits, getattr(self.stats, hits) + 1)
                return value
        value = build()
        if value is None:
            return None
        with self._lock:
            evictions = memo.evictions
            kept = memo.setdefault(key, value)
            counter = (builds or f"{cache}_builds") if kept is value else hits
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            self.stats.evictions += memo.evictions - evictions
        return kept

    def pair(self, config: ExperimentConfig) -> DistillationPair:
        return self._kept("pair", (config.task, config.dataset), config.build_pair)

    def server(self, config: ExperimentConfig) -> ServerSpec:
        return self._kept("server", (config.server, config.num_gpus), config.build_server)

    def dataset(self, config: ExperimentConfig) -> DatasetSpec:
        return config.build_dataset()

    def executor(self, config: ExperimentConfig) -> ScheduleExecutor:
        key = (config.task, config.dataset, config.server, config.num_gpus, config.simulated_steps)
        return self._kept(
            "executor",
            key,
            lambda: ScheduleExecutor(
                pair=self.pair(config),
                server=self.server(config),
                dataset=self.dataset(config),
                simulated_steps=config.simulated_steps,
                templates=self._templates,
            ),
        )

    def profile(self, config: ExperimentConfig) -> ProfileTable:
        """The profile table for this cell, built once per cell while kept.

        It covers every batch size any planner may request: the LS baseline
        scores blocks at the full batch size, and the pipeline planners use
        the per-device micro-batch sizes, which the profiler's
        ``feasible_batches`` already covers.
        """

        def build() -> ProfileTable:
            with span("session.profile_table", cell=config.cell_label()):
                profiler = Profiler(pair=self.pair(config), server=self.server(config))
                return profiler.profile(
                    global_batch=config.batch_size, extra_batches=(config.batch_size,)
                )

        return self._kept("profile", config.cell_key(), build)

    def clear(self) -> None:
        """Drop every cached artefact (stats are kept)."""
        with self._lock:
            for memo in self._memos.values():
                memo.clear()
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
        hydrated from the store (``stats.store_hits``) without building a
        plan or touching the simulator; fresh simulations are written
        through the store (``stats.store_builds``) as ``result.document``.
        A record is read from the store, parsed and validated once while
        the session keeps its result (:meth:`_warm_result`): a later warm
        hit still counts as a ``store_hits`` but makes no store lookup, and
        its result is shared between callers and threads, so it is
        read-only.  Every result builds its ``document`` once, and its
        ``to_dict()`` returns a fresh copy that the caller owns.  A
        :meth:`~repro.store.store.ExperimentStore.gc` that evicts through
        this session's store handle, or :meth:`clear`, drops the kept
        results.  A stored record that does not hydrate raises
        :class:`~repro.errors.StoreError` naming the record.  An explicit
        ``profile`` override bypasses the store entirely — a custom profile
        changes the plan, so its result must be neither served from nor
        written to the shared cache.

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
                result = self._warm_result(config, name)
                if result is not None:
                    self._runs_store_hit.inc()
                    self._run_seconds.observe(time.perf_counter() - started)
                    return result
            executor = self.executor(config)
            lowered = self._plan(config, planner, profile, executor)
            with span("session.execute", strategy=name):
                result = executor.execute(lowered)
            with self._lock:
                self.stats.runs += 1
                evicted = self._templates.evictions  # shapes dropped lowering or executing
                self.stats.evictions += evicted - self._template_evictions
                self._template_evictions = evicted
            if use_store:
                self._store.put("run", run_key(config, name), result.document)
                with self._lock:
                    self.stats.store_builds += 1
            self._runs_simulated.inc()
            self._run_seconds.observe(time.perf_counter() - started)
            return result

    def _warm_result(self, config: ExperimentConfig, name: str) -> Optional[ExecutionResult]:
        """The stored result of this run, kept in memory once read, or None.

        A kept result is returned straight away.  Otherwise the store is
        read and the hydrated result kept by its run (the cell, strategy
        name, steps and seed :func:`~repro.store.keys.run_key` addresses).
        Neither the plan nor the peak memory depends on the step count, so
        a result shares them, and the parts of its document built from
        them, with the first result read for its (strategy, cell) when they
        are equal; only they are kept for it, not that result.  A store gc
        that evicted records since the last read drops every kept result.
        """
        cell = config.cell_key()
        if self._store.evictions != self._warm_evictions:
            with self._lock:
                self._memos["store"].clear()
                self._memos["warm_cell"].clear()
                self._warm_evictions = self._store.evictions

        def read() -> Optional[ExecutionResult]:
            key = run_key(config, name)
            cached = self._store.get("run", key)
            if cached is None:
                return None
            try:
                result = ExecutionResult.from_dict(cached)
            except (ReproError, LookupError, TypeError, ValueError) as error:
                raise self._store.malformed("run", key, error) from error
            document = result.document
            parts = {field: document[field] for field in ("plan", *PEAK_MEMORY_FIELDS)}
            with self._lock:
                firsts = self._memos["warm_cell"]
                evictions = firsts.evictions
                plan, peak_memory, shared = firsts.setdefault(
                    (name, cell), (result.plan, result.peak_memory_bytes, parts)
                )
                self.stats.evictions += firsts.evictions - evictions
            # Equal fields, so the same bytes: the document parts built
            # from them are shared too.
            if plan == result.plan:
                result.plan = plan
                document["plan"] = shared["plan"]
            if peak_memory == result.peak_memory_bytes:
                result.peak_memory_bytes = peak_memory
                document.update((field, shared[field]) for field in PEAK_MEMORY_FIELDS)
            return result

        address = (*cell, name, config.simulated_steps, config.seed)
        return self._kept("store", address, read, "store_hits")

    def _plan(
        self,
        config: ExperimentConfig,
        planner: Strategy,
        profile: Optional[ProfileTable],
        executor: ScheduleExecutor,
    ) -> LoweredPlan:
        """The planner's plan for this cell, lowered, made once per (planner, cell) while kept.

        Neither the plan nor its lowering depends on the simulated steps.
        An explicit ``profile`` override plans and lowers afresh and is not
        kept.
        """

        def build() -> LoweredPlan:
            cell_profile = profile
            if cell_profile is None and planner.requires_profile:
                cell_profile = self.profile(config)
            with span("session.plan", strategy=planner.name):
                plan = planner.build(
                    self.pair(config),
                    self.server(config),
                    config.batch_size,
                    self.dataset(config),
                    profile=cell_profile,
                )
            return executor.lower(plan)

        if profile is not None:
            return build()
        return self._kept("plan", (planner, config.cell_key()), build)

    # ------------------------------------------------------------------ #
    # Store plumbing (used by the precompute command)
    # ------------------------------------------------------------------ #
    def in_store(self, config: ExperimentConfig, strategy: str) -> bool:
        """Whether the store already holds this (cell, strategy, steps) run."""
        if self._store is None:
            return False
        return self._store.contains("run", run_key(config, strategy))

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
        strategy_set = tuple(strategies) if strategies is not None else (base_config.strategy,)
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
        tasks = [(config, strategy) for config in configs for strategy in strategy_set]
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
        flat = iter(results)
        return SweepResult(
            base_config=base_config,
            strategies=strategy_set,
            cells=tuple(
                ExperimentSuiteResult(config, {strategy: next(flat) for strategy in strategy_set})
                for config in configs
            ),
            axes={name: values for name, values in axes.items() if len(values) > 1},
        )
