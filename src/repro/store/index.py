"""Read-optimized store index: SQLite point lookups beside the shard scanner.

The store's native read path parses a whole JSONL shard on first touch
(:meth:`~repro.store.store.ExperimentStore._load_shard`), which is fine for
a handful of records but shows up in the serve latency profile once a
pregenerated artifact carries tens of thousands of rows — every cold boot
pays an O(shard) parse per prefix before its first hit.  This module adds
a *derived*, rebuildable index so a warm lookup is one SQLite point query:

* :class:`SqliteIndex` — ``<root>/index.sqlite`` in WAL mode, one row per
  record (``key, kind, schema, ts, value`` with the value kept as
  canonical JSON).  The JSONL shards remain the source of truth: the
  index can be deleted and rebuilt at any time (``repro cache index``)
  and ``cache export`` never reads it, so exports stay byte-stable.
* :data:`READERS` — a registry of read strategies mirroring the strategy /
  policy / backend registries: ``scan`` (the original lazy shard parse)
  and ``sqlite`` (point query, falling back to a shard scan on a miss so
  lines appended by an index-unaware writer are still found).
  ``ExperimentStore(reader="auto")`` picks ``sqlite`` automatically when
  the index file exists — which is how a service booted against a
  pregenerated artifact gets the fast path without configuration.

Writers keep the index coherent: :meth:`ExperimentStore.put` inserts into
an attached index inside the same inter-process mutation lock that
serialises the JSONL append, and gc rebuilds it from the surviving
records.  A writer that crashes between the append and the insert leaves
the index one row short, never wrong — the sqlite reader's scan fallback
covers exactly that window.

Documented in ``docs/PREGEN.md`` (index backend) and ``docs/CACHING.md``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Protocol, runtime_checkable

from repro.errors import StoreError
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.registry import NamedRegistry, make_register
from repro.store.keys import canonical_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.store.store import ExperimentStore

#: File name of the derived SQLite index inside a store root.
INDEX_FILENAME = "index.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    key    TEXT PRIMARY KEY,
    kind   TEXT NOT NULL,
    schema INTEGER NOT NULL,
    ts     REAL NOT NULL,
    value  TEXT NOT NULL
) WITHOUT ROWID;
"""


class SqliteIndex:
    """A WAL-mode SQLite mirror of a store's records, keyed by content key.

    One connection per handle, guarded by a lock (point queries hold it
    for microseconds); safe for the multi-threaded serve/backends paths.
    Cross-process write exclusion is inherited from the store's flock —
    every insert happens inside ``_disk_mutation_lock`` — so WAL only has
    to serve concurrent readers, which it does without blocking.

    Example:
        >>> import tempfile
        >>> from repro.store import ExperimentStore
        >>> from repro.store.index import build_index
        >>> store = ExperimentStore(tempfile.mkdtemp())
        >>> _ = store.put("run", {"cell": "demo"}, {"epoch_time_s": 1.5})
        >>> build_index(store)
        1
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        try:
            self._conn = sqlite3.connect(
                str(self.path), check_same_thread=False, timeout=30.0
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(_SCHEMA)
            self._conn.commit()
        except sqlite3.Error as error:
            raise StoreError(
                f"cannot open store index {self.path} ({error}); delete the "
                "file and rebuild it with 'repro cache index'"
            ) from error

    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> Optional[dict]:
        """The record stored under ``key``, or None (no shard touched)."""
        with self._lock:
            try:
                row = self._conn.execute(
                    "SELECT kind, schema, ts, value FROM records WHERE key = ?",
                    (key,),
                ).fetchone()
            except sqlite3.Error as error:
                raise StoreError(
                    f"store index {self.path} is unreadable ({error}); delete "
                    "it and rebuild with 'repro cache index'"
                ) from error
        if row is None:
            return None
        kind, schema, ts, value = row
        return {
            "key": key,
            "kind": kind,
            "schema": schema,
            "ts": ts,
            "value": json.loads(value),
        }

    def insert(self, record: dict) -> None:
        """Upsert one record (call with the store's mutation lock held)."""
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO records (key, kind, schema, ts, value) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    record["key"],
                    record["kind"],
                    record["schema"],
                    record["ts"],
                    canonical_json(record["value"]),
                ),
            )
            self._conn.commit()

    def replace_all(self, records: Iterable[dict]) -> int:
        """Rebuild the whole table from ``records``; returns the row count.

        One transaction: readers in other processes keep seeing the old
        rows until the commit, never a half-built table.
        """
        rows = [
            (r["key"], r["kind"], r["schema"], r["ts"], canonical_json(r["value"]))
            for r in records
        ]
        with self._lock:
            with self._conn:
                self._conn.execute("DELETE FROM records")
                self._conn.executemany(
                    "INSERT INTO records (key, kind, schema, ts, value) "
                    "VALUES (?, ?, ?, ?, ?)",
                    rows,
                )
        return len(rows)

    def count(self) -> int:
        """Number of indexed records."""
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def index_path(store: "ExperimentStore") -> Path:
    return store.root / INDEX_FILENAME


def build_index(store: "ExperimentStore") -> int:
    """(Re)build a store's SQLite index from its JSONL shards.

    Returns the number of rows indexed and attaches the index to the
    store handle, switching its reads to the ``sqlite`` reader.  Safe to
    run against a live store: the rebuild happens under the store's
    inter-process mutation lock, so no append can slip between the shard
    walk and the commit.
    """
    with span("store.index_build"):
        with store._disk_mutation_lock():
            store.refresh()
            index = store._index_handle or SqliteIndex(index_path(store))
            rows = index.replace_all(store.records())
        store.attach_index(index)
    get_registry().counter(
        "repro_store_index_builds_total", "SQLite index rebuilds"
    ).inc()
    return rows


def drop_index(store: "ExperimentStore") -> None:
    """Detach and delete a store's SQLite index (reads fall back to scans)."""
    handle = store._index_handle
    if handle is not None:
        handle.close()
    store.attach_index(None)
    for suffix in ("", "-wal", "-shm"):
        path = Path(str(index_path(store)) + suffix)
        if path.exists():
            os.unlink(path)


# ---------------------------------------------------------------------- #
# Reader registry
# ---------------------------------------------------------------------- #
@runtime_checkable
class StoreReader(Protocol):
    """A pluggable read strategy for :class:`ExperimentStore` lookups.

    ``name`` is the registry key (the string accepted by
    ``ExperimentStore(reader=...)``); :meth:`lookup` returns the raw
    record dict for a content key, or None.
    """

    name: str

    def lookup(self, store: "ExperimentStore", key: str) -> Optional[dict]:
        """The record stored under ``key``, or None when absent."""
        ...


class ReaderRegistry(NamedRegistry[StoreReader]):
    """Ordered name -> :class:`StoreReader` mapping.

    Example:
        >>> from repro.store.index import READERS
        >>> READERS.names()
        ('scan', 'sqlite')
    """

    kind = "reader"
    kind_plural = "readers"

    def validate(self, name: str, reader: StoreReader) -> None:
        if not callable(getattr(reader, "lookup", None)):
            raise StoreError(f"reader {name!r} must expose a callable 'lookup'")


#: The process-wide reader registry consulted by ``ExperimentStore``.
READERS = ReaderRegistry()

#: Register a reader class or instance (usable as a decorator); see
#: :func:`repro.registry.make_register`.
register_reader = make_register(READERS)


@register_reader
class ScanReader:
    """The original read path: lazy whole-shard parse, cached in memory."""

    name = "scan"

    def lookup(self, store: "ExperimentStore", key: str) -> Optional[dict]:
        return store._load_shard(store._prefix(key)).get(key)


@register_reader
class SqliteReader:
    """Point lookups against the SQLite index, with a shard-scan fallback.

    The fallback keeps correctness independent of index freshness: a
    record appended by a writer that never attached the index (older
    library, crashed mid-put) misses in SQLite but is still served from
    its shard — at scan cost, which the next ``repro cache index`` run
    repairs.
    """

    name = "sqlite"

    def lookup(self, store: "ExperimentStore", key: str) -> Optional[dict]:
        index = store._index_handle
        if index is None:  # pragma: no cover - defensive; attach precedes use
            return ScanReader().lookup(store, key)
        record = index.lookup(key)
        outcome = "hit"
        if record is None:
            record = store._load_shard(store._prefix(key)).get(key)
            outcome = "fallback" if record is not None else "miss"
        get_registry().counter(
            "repro_store_index_lookups_total", "SQLite index lookups by outcome"
        ).inc(outcome=outcome)
        return record


def resolve_reader(store: "ExperimentStore", reader: str) -> StoreReader:
    """Resolve a reader name (``auto`` picks sqlite when the index exists).

    An explicit ``reader="sqlite"`` against a store with no index file
    builds one on the spot — opting in means opting in to the build cost,
    not to silent scan behaviour.
    """
    if reader == "auto":
        reader = "sqlite" if index_path(store).exists() else "scan"
    resolved = READERS.get(reader)
    if resolved.name == "sqlite" and store._index_handle is None:
        if index_path(store).exists():
            store.attach_index(SqliteIndex(index_path(store)))
        else:
            build_index(store)
    return resolved


def index_summary(store: "ExperimentStore") -> Dict[str, object]:
    """Cheap index facts for ``disk_summary`` payloads (no row counting).

    One ``stat`` per call, never cached: the file's size changes on every
    WAL checkpoint, which no store method observes.
    """
    try:
        index_bytes = os.stat(index_path(store)).st_size
    except FileNotFoundError:
        return {"reader": store.reader_name, "indexed": False, "index_bytes": 0}
    return {"reader": store.reader_name, "indexed": True, "index_bytes": index_bytes}


__all__ = [
    "INDEX_FILENAME",
    "READERS",
    "ScanReader",
    "SqliteIndex",
    "SqliteReader",
    "StoreReader",
    "build_index",
    "drop_index",
    "index_path",
    "index_summary",
    "register_reader",
    "resolve_reader",
]
