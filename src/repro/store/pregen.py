"""Offline pregeneration of planning tables as a shipped data asset.

SNIPPETS.md Snippet 1 pregenerates 150 years of astronomy into a JSON
table so runtime lookups are O(1); this module does the same for
planning.  The ``precompute`` command (``repro precompute`` and
``POST /v1/precompute``, :func:`repro.commands.precompute`) sweeps a grid
— a named preset such as every registered strategy x batch size x GPU
count x server preset, or the axes of the request — through the existing
execution backends into a session's
:class:`~repro.store.store.ExperimentStore`, then stamps the artifact
with a ``manifest.json`` so a consumer can verify, resume and pin it:

* **Grid** (:class:`GridSpec`) — the canonical cell enumeration plus a
  deterministic :meth:`~GridSpec.grid_hash` over its canonical-JSON
  spec.  Placement policies are part of the spec (and the hash) because
  the artifact is advertised for a given policy registry, but run
  records are placement-independent, so policies do not multiply cells.
* **Manifest** (:class:`Manifest`) — ``{magic, schema_version, version,
  grid, grid_hash, row_count, complete, keys}`` written atomically to
  the store root.  The explicit content-key list makes gc pinning exact
  (:meth:`ExperimentStore.gc` never evicts a manifest-referenced row)
  and survives library version bumps that re-address fresh records.
  A later run keeps every key an earlier manifest pinned.
* **Resume** (:func:`run_pregen`) — every cell is checked against the
  store first and only missing cells are simulated; interrupting a run
  loses nothing because every store write is its own committed
  transaction.  A re-run against a partial artifact therefore fills
  exactly the gap.

The payoff: any Session, tune, or serve instance boots against the
artifact and plans the full canonical grid without ever simulating —
asserted end-to-end by the ``pregen-smoke`` CI job.

Documented in ``docs/PREGEN.md``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.core.config import ExperimentConfig
from repro.errors import StoreError, StoreSchemaError
from repro.fold import left_sum
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.store.backends import CellTask, ExecutionBackend, resolve_backend
from repro.store.keys import canonical_json, content_key, run_key
from repro.store.store import ExperimentStore
from repro.version import __version__

if TYPE_CHECKING:  # pragma: no cover - typing only; the session imports this module
    from repro.core.session import Session

#: File name of the pregen manifest inside a store root.
MANIFEST_FILENAME = "manifest.json"

#: Identifies a manifest as ours (a foreign ``manifest.json`` is rejected,
#: never silently trusted for gc pinning).
MANIFEST_MAGIC = "repro-pregen"

#: Version of the manifest shape; bumped when fields change meaning.
MANIFEST_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------- #
# Grid specification
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class GridSpec:
    """A deterministic enumeration of (cell, strategy) pregen targets.

    Axes mirror :class:`~repro.core.config.ExperimentConfig`; ``policies``
    records the placement registry the artifact was generated for (it
    participates in the grid hash, not in the cell product — run records
    are placement-independent).

    Example:
        >>> from repro.store.pregen import resolve_grid
        >>> grid = resolve_grid("canonical")
        >>> (len(grid.cells()), len(grid.grid_hash()))
        (96, 64)
    """

    name: str
    tasks: Tuple[str, ...] = ("nas",)
    datasets: Tuple[str, ...] = ("cifar10",)
    servers: Tuple[str, ...] = ("a6000", "2080ti")
    gpu_counts: Tuple[int, ...] = (2, 4)
    batch_sizes: Tuple[int, ...] = (128, 256, 384, 512)
    strategies: Tuple[str, ...] = ()
    policies: Tuple[str, ...] = ()
    steps: int = 10
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tasks": list(self.tasks),
            "datasets": list(self.datasets),
            "servers": list(self.servers),
            "gpu_counts": list(self.gpu_counts),
            "batch_sizes": list(self.batch_sizes),
            "strategies": list(self.strategies),
            "policies": list(self.policies),
            "steps": self.steps,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GridSpec":
        try:
            return cls(
                name=payload["name"],
                tasks=tuple(payload["tasks"]),
                datasets=tuple(payload["datasets"]),
                servers=tuple(payload["servers"]),
                gpu_counts=tuple(payload["gpu_counts"]),
                batch_sizes=tuple(payload["batch_sizes"]),
                strategies=tuple(payload["strategies"]),
                policies=tuple(payload["policies"]),
                steps=payload["steps"],
                seed=payload["seed"],
            )
        except (KeyError, TypeError) as error:
            raise StoreError(f"invalid pregen grid spec ({error})") from error

    def grid_hash(self) -> str:
        """SHA-256 over the canonical-JSON spec: same grid, same hash.

        Deliberately does *not* include the library version — the hash
        names the grid, while the store's content keys already re-address
        every record on a version bump.
        """
        envelope = {"pregen_grid": self.to_dict()}
        return hashlib.sha256(
            canonical_json(envelope).encode("utf-8")
        ).hexdigest()

    def cells(self) -> List[CellTask]:
        """Every (config, strategy) target, in deterministic axis order."""
        tasks: List[CellTask] = []
        for task, dataset, server, gpus, batch, strategy in itertools.product(
            self.tasks,
            self.datasets,
            self.servers,
            self.gpu_counts,
            self.batch_sizes,
            self.strategies,
        ):
            config = ExperimentConfig(
                task=task,
                dataset=dataset,
                server=server,
                num_gpus=gpus,
                batch_size=batch,
                simulated_steps=self.steps,
                seed=self.seed,
            )
            tasks.append((config, strategy))
        return tasks

    def cell_keys(self) -> List[str]:
        """The content key of every cell's run record (current lib version)."""
        return [
            content_key("run", run_key(config, strategy))
            for config, strategy in self.cells()
        ]


def _canonical_grid() -> GridSpec:
    """The full published grid: all registered strategies and policies."""
    from repro.cluster import POLICIES
    from repro.parallel.registry import REGISTRY

    return GridSpec(
        name="canonical",
        strategies=REGISTRY.names(),
        policies=POLICIES.names(),
    )


def _smoke_grid() -> GridSpec:
    """A small CI-sized grid (8 cells) sharing the canonical defaults.

    ``steps`` stays at the serve default so a bare ``/v1/plan`` request
    lands on a pregenerated cell.
    """
    return replace(
        _canonical_grid(),
        name="smoke",
        servers=("a6000",),
        batch_sizes=(128, 256),
        strategies=("DP", "TR"),
    )


#: Named grid presets accepted by ``precompute``'s ``grid`` field.
GRIDS: Dict[str, Callable[[], GridSpec]] = {
    "canonical": _canonical_grid,
    "smoke": _smoke_grid,
}


def resolve_grid(grid: Union[str, GridSpec]) -> GridSpec:
    """Accept a grid by name or as an explicit :class:`GridSpec`."""
    if isinstance(grid, GridSpec):
        spec = grid
    else:
        if grid not in GRIDS:
            raise StoreError(
                f"unknown pregen grid {grid!r}; choices: {sorted(GRIDS)}"
            )
        spec = GRIDS[grid]()
    _validate_grid(spec)
    return spec


def _validate_grid(spec: GridSpec) -> None:
    """Fail fast on unknown strategies / policies before simulating."""
    from repro.parallel.registry import REGISTRY

    if not spec.strategies:
        raise StoreError(f"pregen grid {spec.name!r} names no strategies")
    for strategy in spec.strategies:
        REGISTRY.get(strategy)
    if spec.policies:
        from repro.cluster import POLICIES

        for policy in spec.policies:
            POLICIES.get(policy)


# ---------------------------------------------------------------------- #
# Manifest
# ---------------------------------------------------------------------- #
@dataclass
class Manifest:
    """The ``manifest.json`` stamped into a pregenerated store root.

    ``keys`` is the explicit, sorted content-key list of every grid cell —
    what :meth:`ExperimentStore.gc` pins, exactly and independently of
    the library version that later runs the gc.
    """

    grid: GridSpec
    grid_hash: str
    row_count: int
    complete: bool
    keys: Tuple[str, ...] = ()
    version: str = __version__
    schema_version: int = MANIFEST_SCHEMA_VERSION
    created_ts: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        return {
            "magic": MANIFEST_MAGIC,
            "schema_version": self.schema_version,
            "version": self.version,
            "grid": self.grid.to_dict(),
            "grid_hash": self.grid_hash,
            "row_count": self.row_count,
            "complete": self.complete,
            "keys": sorted(self.keys),
            "created_ts": self.created_ts,
        }

    @classmethod
    def from_dict(cls, payload: dict, source: str = "manifest") -> "Manifest":
        if not isinstance(payload, dict) or payload.get("magic") != MANIFEST_MAGIC:
            raise StoreError(
                f"{source} is not a pregen manifest (bad magic); refusing to "
                "trust it for pinning — delete the file if it is stale"
            )
        if payload.get("schema_version") != MANIFEST_SCHEMA_VERSION:
            raise StoreSchemaError(
                f"{source} has manifest schema "
                f"{payload.get('schema_version')!r} but this library reads "
                f"version {MANIFEST_SCHEMA_VERSION}; regenerate the artifact"
            )
        try:
            keys = payload["keys"]
            if not isinstance(keys, list) or not all(
                isinstance(key, str) for key in keys
            ):
                raise StoreError(f"{source} carries a malformed key list")
            return cls(
                grid=GridSpec.from_dict(payload["grid"]),
                grid_hash=payload["grid_hash"],
                row_count=int(payload["row_count"]),
                complete=bool(payload["complete"]),
                keys=tuple(keys),
                version=payload["version"],
                schema_version=payload["schema_version"],
                created_ts=float(payload.get("created_ts", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StoreError(f"{source} is malformed ({error})") from error


def manifest_path(root: Union[str, Path]) -> Path:
    return Path(root) / MANIFEST_FILENAME


def load_manifest(root: Union[str, Path]) -> Optional[Manifest]:
    """The manifest in a store root, or None when there is none.

    Raises :class:`~repro.errors.StoreError` on a corrupt or foreign
    ``manifest.json`` — callers (gc pinning above all) must fail loudly
    rather than guess which rows an unreadable manifest meant to pin.
    """
    path = manifest_path(root)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise StoreError(
            f"pregen manifest {path} is unreadable ({error}); delete it or "
            "regenerate the artifact with 'repro precompute'"
        ) from error
    return Manifest.from_dict(payload, source=str(path))


def save_manifest(root: Union[str, Path], manifest: Manifest) -> Path:
    """Atomically write a manifest into a store root; returns its path."""
    path = manifest_path(root)
    ExperimentStore._write_atomic(
        path, json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    return path


def manifest_record_keys(root: Union[str, Path]) -> FrozenSet[str]:
    """Content keys pinned by the manifest in ``root`` (empty when none)."""
    manifest = load_manifest(root)
    if manifest is None:
        return frozenset()
    return frozenset(manifest.keys)


# ---------------------------------------------------------------------- #
# The pregen run
# ---------------------------------------------------------------------- #
def run_pregen(
    session: "Session",
    grid: Union[str, GridSpec] = "canonical",
    backend: Union[str, ExecutionBackend, None] = None,
    max_cells: Optional[int] = None,
) -> dict:
    """Sweep a grid into the session's store, resuming past cells already present.

    The cells run on ``backend`` (the session's backend when None) through
    ``session``, so its stats and kept results see every run.
    ``max_cells`` bounds how many *missing* cells this invocation
    simulates (the deterministic stand-in for an interrupt: the CI smoke
    job generates a partial artifact with it, then proves a plain re-run
    fills exactly the remainder).  A target listed twice is simulated once.

    The manifest is written *before* simulating (``complete=False``, so
    an interrupted artifact is recognisably partial and its rows are
    already pinned against gc) and rewritten atomically at the end.  It
    pins the keys the previous manifest pinned as well as this grid's, so
    warming a second grid never unpins the first.

    Returns the report: ``grid``, ``grid_hash``, ``cells`` (configs),
    ``grid_size`` ((config, strategy) targets), ``simulated``,
    ``hydrated`` (targets present without simulating them here),
    ``row_count`` (targets present now) and ``complete``.
    """
    store = session.store
    if store is None:
        raise StoreError("pregen writes into a store, but the session has none")
    if max_cells is not None and max_cells < 0:
        raise StoreError(f"max_cells must be >= 0, got {max_cells}")
    spec = resolve_grid(grid)
    resolved = resolve_backend(session.backend if backend is None else backend)

    with span("pregen.run", grid=spec.name, backend=resolved.name):
        cells = spec.cells()
        keys = spec.cell_keys()
        missing: Dict[str, CellTask] = {}
        for key, (config, strategy) in zip(keys, cells):
            if key not in missing and not session.in_store(config, strategy):
                missing[key] = (config, strategy)
        todo = list(missing.values())[:max_cells]

        manifest = Manifest(
            grid=spec,
            grid_hash=spec.grid_hash(),
            row_count=left_sum(1 for key in keys if key not in missing),
            complete=not missing,
            keys=tuple(manifest_record_keys(store.root).union(keys)),
        )
        save_manifest(store.root, manifest)

        if todo:
            with span("pregen.simulate", cells=len(todo)):
                resolved.run_cells(session, todo)

        manifest.row_count = left_sum(
            1 for config, strategy in cells if session.in_store(config, strategy)
        )
        manifest.complete = manifest.row_count == len(cells)
        save_manifest(store.root, manifest)

    hydrated = manifest.row_count - len(todo)
    counter = get_registry().counter(
        "repro_pregen_cells_total", "pregen grid cells by outcome"
    )
    counter.inc(len(todo), outcome="simulated")
    counter.inc(hydrated, outcome="skipped")
    return {
        "grid": spec.name,
        "grid_hash": manifest.grid_hash,
        "cells": len(cells) // len(spec.strategies),
        "grid_size": len(cells),
        "simulated": len(todo),
        "hydrated": hydrated,
        "row_count": manifest.row_count,
        "complete": manifest.complete,
    }


__all__ = [
    "GRIDS",
    "GridSpec",
    "MANIFEST_FILENAME",
    "MANIFEST_MAGIC",
    "MANIFEST_SCHEMA_VERSION",
    "Manifest",
    "load_manifest",
    "manifest_path",
    "manifest_record_keys",
    "resolve_grid",
    "run_pregen",
    "save_manifest",
]
