"""Persistent experiment store and pluggable execution backends.

* :mod:`repro.store.store` — the content-addressed on-disk store
  (:class:`ExperimentStore`): one WAL-mode SQLite file, schema
  versioning, gc, export and the one-shot import of legacy JSONL stores.
* :mod:`repro.store.keys` — canonical key payloads and content hashing.
* :mod:`repro.store.backends` — the ``inline`` / ``process``
  execution-backend registry, mirroring the strategy and placement
  registries.
* :mod:`repro.store.pregen` — offline pregeneration of planning tables:
  named grids, manifests, resume semantics (the ``precompute`` command).

See ``docs/CACHING.md`` and ``docs/PREGEN.md`` for the full guides.
"""

from repro.store.backends import (
    BACKENDS,
    ExecutionBackend,
    register_backend,
    resolve_backend,
)
from repro.store.keys import SCHEMA_VERSION, canonical_json, content_key
from repro.store.pregen import (
    GRIDS,
    GridSpec,
    Manifest,
    load_manifest,
    resolve_grid,
    run_pregen,
)
from repro.store.store import ExperimentStore, StoreStats, open_store

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ExperimentStore",
    "GRIDS",
    "GridSpec",
    "Manifest",
    "SCHEMA_VERSION",
    "StoreStats",
    "canonical_json",
    "content_key",
    "load_manifest",
    "open_store",
    "register_backend",
    "resolve_backend",
    "resolve_grid",
    "run_pregen",
]
