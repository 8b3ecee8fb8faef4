"""Execution backends: *where* a batch of experiment cells runs.

The strategy registry decides how a cell is scheduled and the placement
registry decides where a job lands in a fleet; this registry completes the
trio by deciding how the library itself executes a batch of (config,
strategy) cells:

* ``inline`` — serially on the calling thread (default, zero overhead);
* ``process`` — on a process pool; workers are separate interpreters that
  each open their own :class:`~repro.core.session.Session` against the
  *same* on-disk store, so results flow back both through pickling and
  through concurrent store writes.  This is the backend that exercises
  multi-writer store semantics — and the template for remote executors.

Register a custom backend exactly like a strategy or policy::

    from repro.store.backends import register_backend

    @register_backend
    class SlurmBackend:
        name = "slurm"

        def run_cells(self, session, tasks):
            ...submit, poll, hydrate from the shared store...

    Session(backend="slurm")   # now valid everywhere

Documented in ``docs/CACHING.md`` (backend selection guide).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.core.config import ExperimentConfig
from repro.errors import ConfigurationError
from repro.parallel.executor import ExecutionResult
from repro.registry import NamedRegistry, make_register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.session import Session

#: One unit of backend work: run ``strategy`` on ``config``'s cell.
CellTask = Tuple[ExperimentConfig, str]


@runtime_checkable
class ExecutionBackend(Protocol):
    """A pluggable executor for batches of experiment cells.

    ``name`` is the registry key (the string accepted by ``Session(backend=...)``
    and ``--backend``); :meth:`run_cells` must return one
    :class:`~repro.parallel.executor.ExecutionResult` per task, in order.
    """

    name: str

    def run_cells(
        self, session: "Session", tasks: Sequence[CellTask]
    ) -> List[ExecutionResult]:
        """Execute every task and return results in task order."""
        ...


class BackendRegistry(NamedRegistry[ExecutionBackend]):
    """Ordered name -> :class:`ExecutionBackend` mapping.

    Example:
        >>> from repro.store.backends import BACKENDS
        >>> BACKENDS.names()
        ('inline', 'process')
    """

    kind = "backend"
    kind_plural = "backends"

    def validate(self, name: str, backend: ExecutionBackend) -> None:
        if not callable(getattr(backend, "run_cells", None)):
            raise ConfigurationError(
                f"backend {name!r} must expose a callable 'run_cells'"
            )


#: The process-wide backend registry consulted by Session and the CLI.
BACKENDS = BackendRegistry()

#: Register a backend class or instance (usable as a decorator); see
#: :func:`repro.registry.make_register`.
register_backend = make_register(BACKENDS)


def resolve_backend(backend, max_workers: Optional[int] = None) -> ExecutionBackend:
    """Accept a backend by registry name or as a duck-typed instance.

    ``max_workers`` sizes a ``process`` backend's pool: it gives a new
    :class:`ProcessBackend` and leaves the registered one as it is.
    """
    if isinstance(backend, str):
        resolved = BACKENDS.get(backend)
    else:
        BACKENDS.validate(getattr(backend, "name", "<anonymous>"), backend)
        resolved = backend
    if max_workers is not None and resolved.name == "process":
        return ProcessBackend(max_workers=max_workers)
    return resolved


@register_backend
class InlineBackend:
    """Serial execution on the calling thread (the default backend)."""

    name = "inline"

    def run_cells(self, session, tasks):
        return [session.run(config, strategy=strategy) for config, strategy in tasks]


# ---------------------------------------------------------------------- #
# Process backend: separate interpreters sharing one on-disk store
# ---------------------------------------------------------------------- #
#: Per-worker-process session cache, keyed by store path (or None).
_WORKER_SESSIONS: Dict[Optional[str], "Session"] = {}


def _worker_session(store_path: Optional[str]) -> "Session":
    from repro.core.session import Session

    if store_path not in _WORKER_SESSIONS:
        _WORKER_SESSIONS[store_path] = Session(store=store_path)
    return _WORKER_SESSIONS[store_path]


def _process_worker(payload: Tuple[dict, str, Optional[str]]) -> Tuple[dict, Dict[str, int]]:
    """Run one cell in a worker process; returns (result dict, stats delta).

    The worker's session writes through the shared store (when one is
    configured), so results survive even if the parent dies before
    unpickling — and concurrent workers exercise multi-writer store writes.
    The delta is the change of the worker session's counters over this
    cell (:meth:`~repro.core.session.SessionStats.delta`); the parent adds
    it to its own, so builds, hits and simulations done in workers show in
    the parent's stats.
    """
    config_dict, strategy, store_path = payload
    session = _worker_session(store_path)
    before = session.stats.snapshot()
    result = session.run(ExperimentConfig(**config_dict), strategy=strategy)
    return result.to_dict(), session.stats.delta(before)


@register_backend
class ProcessBackend:
    """Process-pool execution; workers share the session's on-disk store.

    Each worker opens its own session (sessions hold locks and are not
    picklable) against the same store path, runs its cells, and persists
    results before returning them, so every simulated cell is in the store
    by the time the pool drains.  The parent then adds each cell's worker
    counter delta to its own stats.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def run_cells(self, session, tasks):
        store = session.store
        store_path = str(store.root) if store is not None else None
        payloads = [
            (config.to_dict(), strategy, store_path) for config, strategy in tasks
        ]
        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            raw = list(pool.map(_process_worker, payloads))
        results = []
        for result_dict, delta in raw:
            # The workers' counters join the parent's, so a cold
            # process-backend sweep reports its builds and simulations
            # instead of looking like a warm restart.
            session.stats.add(delta)
            results.append(ExecutionResult.from_dict(result_dict))
        return results
