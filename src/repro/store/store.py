"""The on-disk experiment store: content-addressed records in one SQLite file.

Layout (all under one root directory)::

    <root>/meta.json      # {"magic": "repro-store", "schema_version": N}
    <root>/store.sqlite   # table records(key, kind, schema, ts, value)

Each record is one row ``(key, kind, schema, ts, value)`` of a rowid table,
addressed by the canonical content key of :mod:`repro.store.keys` through
the primary key's index, with the value kept as canonical JSON.  A store
whose table predates that layout (``WITHOUT ROWID``) is converted once,
when it is first opened.  Design rules, in order of importance:

* **Durability over cleverness** — the database runs in WAL mode with
  ``synchronous=NORMAL``: every :meth:`~ExperimentStore.put` is its own
  committed transaction, so a writer killed mid-put loses at most that
  record and never leaves a torn one.  SQLite's write lock serialises
  concurrent writers (the ``process`` execution backend, parallel CI
  shards) on one host; readers never block.
* **Versioned schema** — ``meta.json`` pins the store's schema version; a
  mismatch raises :class:`~repro.errors.StoreSchemaError` instead of
  silently serving stale shapes.
* **Duplicates are harmless** — two processes racing the same cell write
  identical content under the same key; the last write wins.

A directory in the older JSONL layout (``shards/<pp>.jsonl``) is refused
with a :class:`~repro.errors.StoreSchemaError` until
:func:`import_legacy` (``repro cache import``) converts it once.

Documented in ``docs/CACHING.md`` (store layout and gc policy).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sqlite3
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from repro.errors import StoreError, StoreSchemaError
from repro.fold import left_sum
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.store.keys import SCHEMA_VERSION, canonical_json, content_key

#: Identifies a directory as an experiment store (guards against pointing
#: ``--store`` at an unrelated directory and gc'ing it).
STORE_MAGIC = "repro-store"

#: File name of the record database inside a store root.
DB_FILENAME = "store.sqlite"

#: The records table: a rowid table, so a value of a kilobyte or more sits
#: in the table's own pages while the primary key's index stays small.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    key    TEXT PRIMARY KEY,
    kind   TEXT NOT NULL,
    schema INTEGER NOT NULL,
    ts     REAL NOT NULL,
    value  TEXT NOT NULL
)
"""

#: The records table's DDL as stored by a store created before the table
#: became a rowid table; :func:`_convert_without_rowid` converts it.
_OLD_LAYOUT = "WITHOUT ROWID"

_INSERT = (
    "INSERT OR REPLACE INTO records (key, kind, schema, ts, value) "
    "VALUES (?, ?, ?, ?, ?)"
)


@dataclass
class StoreStats:
    """Point-in-time snapshot of a store plus its runtime counters.

    Example:
        >>> from repro.store.store import StoreStats
        >>> StoreStats(records=10, hits=30, misses=10).hit_rate()
        0.75
    """

    records: int = 0
    disk_bytes: int = 0
    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    def hit_rate(self) -> float:
        """Warm fraction of lookups served from disk (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        payload = dict(self.__dict__)
        payload["hit_rate"] = self.hit_rate()
        return payload


def _connect(path: Path) -> sqlite3.Connection:
    """An autocommit WAL connection to a record database, table ensured."""
    try:
        conn = sqlite3.connect(
            str(path), check_same_thread=False, timeout=30.0, isolation_level=None
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(_SCHEMA)
        if _OLD_LAYOUT in _records_ddl(conn).upper():
            _convert_without_rowid(conn)
    except sqlite3.Error as error:
        raise StoreError(
            f"cannot open store database {path} ({error}); delete the "
            "directory to start a fresh store"
        ) from error
    return conn


def _records_ddl(conn: sqlite3.Connection) -> str:
    """The ``CREATE TABLE`` statement the database holds for ``records``."""
    row = conn.execute(
        "SELECT sql FROM sqlite_master WHERE type = 'table' AND name = 'records'"
    ).fetchone()
    return row[0] if row is not None else ""


def _convert_without_rowid(conn: sqlite3.Connection) -> None:
    """Copy a ``WITHOUT ROWID`` records table into a rowid one, once.

    Runs in one ``BEGIN IMMEDIATE`` transaction, so a reader sees the old
    table or the new one, and a crash leaves the old one.  The layout is
    checked again inside the transaction: of several handles opening the
    same old store at once, the first converts it and the others find it
    converted.  Keys, kinds, schema versions, timestamps and values are
    copied as they are.
    """
    conn.execute("BEGIN IMMEDIATE")
    try:
        if _OLD_LAYOUT in _records_ddl(conn).upper():
            conn.execute("ALTER TABLE records RENAME TO records_without_rowid")
            conn.execute(_SCHEMA)
            conn.execute(
                "INSERT INTO records (key, kind, schema, ts, value) "
                "SELECT key, kind, schema, ts, value FROM records_without_rowid ORDER BY key"
            )
            conn.execute("DROP TABLE records_without_rowid")
        conn.execute("COMMIT")
    except BaseException:
        conn.execute("ROLLBACK")
        raise


def _check_meta(root: Path) -> bool:
    """Validate ``meta.json`` (False when the root has none yet)."""
    meta_path = root / "meta.json"
    if not meta_path.exists():
        return False
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise StoreError(
            f"store meta {meta_path} is unreadable ({error}); "
            "delete the directory to start a fresh store"
        ) from error
    if meta.get("magic") != STORE_MAGIC:
        raise StoreError(
            f"{root} is not an experiment store (bad magic in "
            "meta.json); refusing to touch it"
        )
    if meta.get("schema_version") != SCHEMA_VERSION:
        raise StoreSchemaError(
            f"store {root} has schema version "
            f"{meta.get('schema_version')!r} but this library writes "
            f"version {SCHEMA_VERSION}; migrate or use a fresh --store "
            "path"
        )
    return True


class ExperimentStore:
    """Content-addressed persistent cache of experiment results.

    Example:
        >>> import tempfile
        >>> from repro.store import ExperimentStore
        >>> store = ExperimentStore(tempfile.mkdtemp())
        >>> key = store.put("run", {"cell": "demo"}, {"epoch_time_s": 1.5})
        >>> store.get("run", {"cell": "demo"})["epoch_time_s"]
        1.5
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        #: Guards the connection and the counters; queries hold it for
        #: microseconds, so the handle is safe to share across threads.
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0
        self._open()
        db = str(self.db_path)
        self._disk_paths = (db, db + "-wal")
        self._root_str = str(self.root)
        registry = get_registry()
        lookups = registry.counter(
            "repro_store_lookups_total", "store lookups by result"
        )
        self._lookup_hit = lookups.labels(result="hit")
        self._lookup_miss = lookups.labels(result="miss")
        self._puts_total = registry.counter(
            "repro_store_puts_total", "records written to the store"
        )

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    @property
    def meta_path(self) -> Path:
        return self.root / "meta.json"

    @property
    def db_path(self) -> Path:
        return self.root / DB_FILENAME

    def _open(self) -> None:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            # e.g. --store pointing at an existing file, or an unwritable
            # parent: surface a library error the CLI reports cleanly
            # instead of a raw FileExistsError traceback.
            raise StoreError(
                f"cannot open experiment store at {self.root} ({error}); "
                "--store must name a writable directory"
            ) from error
        if not _check_meta(self.root):
            self._write_atomic(
                self.meta_path,
                json.dumps(
                    {"magic": STORE_MAGIC, "schema_version": SCHEMA_VERSION},
                    indent=2,
                )
                + "\n",
            )
        if (self.root / "shards").is_dir():
            # The import removes shards/ last, so an interrupted import is
            # refused here too and simply runs again.
            raise StoreSchemaError(
                f"{self.root} holds a legacy JSONL store (shards/); convert "
                f"it once with 'repro cache import --store {self.root}'"
            )
        self._conn = _connect(self.db_path)

    @staticmethod
    def _write_atomic(path: Path, text: str) -> None:
        """Write a whole file through a same-directory temp + rename."""
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #
    def get(self, kind: str, key_payload: dict) -> Optional[dict]:
        """The stored value for a key, or None (counted as hit / miss).

        The value is parsed from its stored JSON on every call, so each
        caller owns the document it receives.  A session keeps the result
        it hydrates from a run record, not the document (see
        :meth:`Session.run <repro.core.session.Session.run>`).
        """
        key = content_key(kind, key_payload)
        with span("store.get", kind=kind):
            with self._lock:
                row = self._conn.execute(
                    "SELECT value FROM records WHERE key = ? AND kind = ?",
                    (key, kind),
                ).fetchone()
                if row is not None:
                    self._hits += 1
                else:
                    self._misses += 1
            if row is None:
                self._lookup_miss.inc()
                return None
            self._lookup_hit.inc()
            with span("store.hydrate", kind=kind):
                try:
                    return json.loads(row[0])
                except ValueError as error:
                    raise self.malformed(kind, key_payload, error) from error

    def malformed(self, kind: str, key_payload: dict, error: Exception) -> StoreError:
        """The error for a record whose value does not hydrate.

        It names the record and how to clear it; callers raise it when a
        value :meth:`get` returned fails their own validation.
        """
        key = content_key(kind, key_payload)
        return StoreError(
            f"store record {key} ({kind}) in {self.db_path} is malformed "
            f"({type(error).__name__}: {error}); delete that row (sqlite3 "
            f"{self.db_path} \"DELETE FROM records WHERE key = '{key}'\") "
            "or use a fresh --store directory"
        )

    def contains(self, kind: str, key_payload: dict) -> bool:
        """Whether a record exists, without touching the hit/miss counters."""
        key = content_key(kind, key_payload)
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM records WHERE key = ? AND kind = ?", (key, kind)
            ).fetchone()
        return row is not None

    def put(self, kind: str, key_payload: dict, value: dict) -> str:
        """Persist one record (one committed upsert); returns its key."""
        key = content_key(kind, key_payload)
        row = (key, kind, SCHEMA_VERSION, time.time(), canonical_json(value))
        with span("store.put", kind=kind):
            with self._lock:
                self._conn.execute(_INSERT, row)
                self._puts += 1
        self._puts_total.inc(kind=kind)
        return key

    # ------------------------------------------------------------------ #
    # Whole-store operations
    # ------------------------------------------------------------------ #
    def records(self) -> Iterator[dict]:
        """Every record, in key order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, kind, schema, ts, value FROM records ORDER BY key"
            ).fetchall()
        for key, kind, schema, ts, value in rows:
            yield {
                "key": key,
                "kind": kind,
                "schema": schema,
                "ts": ts,
                "value": json.loads(value),
            }

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]

    def gc(
        self,
        max_records: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
    ) -> int:
        """Evict expired / excess records; returns how many were dropped.

        Age eviction drops records older than ``max_age_seconds``; capacity
        eviction then keeps only the ``max_records`` newest.  Selection and
        deletion run in one ``BEGIN IMMEDIATE`` transaction, so a record
        another process writes meanwhile is either seen or kept.  The
        database is then vacuumed and its WAL truncated, so the files
        shrink to the survivors.

        Records referenced by a pregen ``manifest.json`` in the store root
        are **pinned**: they survive both bounds unconditionally (the
        artifact's zero-simulation guarantee must not rot under routine
        gc), so a store holding a pregen artifact may legitimately keep
        more than ``max_records`` rows.  Delete the manifest to unpin.
        """
        if max_records is not None and max_records < 0:
            raise StoreError("gc max_records must be >= 0")
        if max_age_seconds is not None and not (
            math.isfinite(max_age_seconds) and max_age_seconds >= 0
        ):
            # A negative or NaN age puts the horizon in the future (or makes
            # every comparison false) and would silently evict everything.
            raise StoreError(
                f"gc max_age_seconds must be a finite number >= 0, got {max_age_seconds!r}"
            )
        pinned_keys = self._pinned_keys()
        with self._lock:
            conn = self._conn
            conn.execute("BEGIN IMMEDIATE")
            try:
                rows = conn.execute("SELECT ts, key FROM records").fetchall()
                survivors = sorted(row for row in rows if row[1] not in pinned_keys)
                evicted = []
                # Oldest first, so both bounds evict a prefix of the list.
                if max_age_seconds is not None:
                    horizon = time.time() - max_age_seconds
                    evicted = [row for row in survivors if row[0] < horizon]
                    survivors = survivors[len(evicted):]
                if max_records is not None and len(survivors) > max_records:
                    evicted += survivors[: len(survivors) - max_records]
                conn.executemany(
                    "DELETE FROM records WHERE key = ?", [(key,) for _, key in evicted]
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("VACUUM")
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            self._evictions += len(evicted)
        return len(evicted)

    @property
    def evictions(self) -> int:
        """Records this handle's :meth:`gc` calls have evicted so far.

        A session watches it to drop the warm results it keeps in memory
        when a record may be gone (see :meth:`Session.run
        <repro.core.session.Session.run>`).
        """
        return self._evictions

    def _pinned_keys(self) -> frozenset:
        """Content keys pinned by a pregen ``manifest.json`` in the root.

        Imported lazily: :mod:`repro.store.pregen` builds on this module.
        """
        from repro.store.pregen import manifest_record_keys

        return manifest_record_keys(self.root)

    def export(self) -> dict:
        """JSON-serialisable dump of the whole store (``cache export``)."""
        records = list(self.records())
        return {
            "schema_version": SCHEMA_VERSION,
            "root": str(self.root),
            "num_records": len(records),
            "records": records,
        }

    def disk_summary(self) -> dict:
        """Bytes on disk of the database and its WAL, from a fresh ``stat``.

        Cheap enough for every CLI and ``/v1/plan`` payload; use
        :meth:`stats` / ``cache stats`` for record counts.
        """
        disk_bytes = 0
        for path in self._disk_paths:
            try:
                disk_bytes += os.stat(path).st_size
            except FileNotFoundError:
                pass
        return {"root": self._root_str, "disk_bytes": disk_bytes}

    def _build_stats(self, num_records: int) -> StoreStats:
        disk_bytes = self.disk_summary()["disk_bytes"]
        with self._lock:
            return StoreStats(
                records=num_records,
                disk_bytes=disk_bytes,
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                evictions=self._evictions,
            )

    def stats(self) -> StoreStats:
        """Disk-level aggregates plus this handle's runtime counters."""
        return self._build_stats(len(self))

    def overview(self) -> dict:
        """Stats plus a per-record-kind histogram."""
        with self._lock:
            kinds = dict(
                self._conn.execute(
                    "SELECT kind, COUNT(*) FROM records GROUP BY kind ORDER BY kind"
                ).fetchall()
            )
        return {
            "root": str(self.root),
            "stats": self._build_stats(left_sum(kinds.values())).to_dict(),
            "records_by_kind": kinds,
        }

    def close(self) -> None:
        """Close the database connection; the handle is unusable after."""
        with self._lock:
            self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExperimentStore(root={str(self.root)!r})"


def open_store(
    store: Union["ExperimentStore", str, Path, None]
) -> Optional[ExperimentStore]:
    """Coerce a store argument (instance, path or None) to a store handle."""
    if store is None or isinstance(store, ExperimentStore):
        return store
    return ExperimentStore(store)


def import_legacy(root: Union[str, Path]) -> Dict[str, int]:
    """Convert a JSONL-layout store to ``store.sqlite`` (``cache import``).

    Every line of ``shards/*.jsonl`` that parses to a record of this schema
    version is inserted, in shard and line order, in one transaction, so
    the last line for a key wins as it did for the JSONL reader.  Other
    non-blank lines are skipped and counted.  The legacy ``quarantine/``,
    ``index.sqlite*`` and ``.lock`` are then removed, and ``shards/``
    last: an interrupted import leaves the store legacy and simply runs
    again, and a second import finds nothing to do.
    """
    root = Path(root)
    if not _check_meta(root):
        raise StoreError(f"no experiment store at {root} (meta.json missing)")
    shards = root / "shards"
    rows, skipped = [], 0
    for shard in sorted(shards.glob("*.jsonl")):
        for line in shard.read_text().splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if not (
                isinstance(record, dict)
                and all(field in record for field in ("key", "kind", "schema", "ts", "value"))
                and record["schema"] == SCHEMA_VERSION
            ):
                skipped += 1
                continue
            value = canonical_json(record["value"])
            rows.append((record["key"], record["kind"], record["schema"], record["ts"], value))
    if rows:
        conn = _connect(root / DB_FILENAME)
        try:
            conn.execute("BEGIN IMMEDIATE")
            conn.executemany(_INSERT, rows)
            conn.execute("COMMIT")
        finally:
            conn.close()
    shutil.rmtree(root / "quarantine", ignore_errors=True)
    for name in ("index.sqlite", "index.sqlite-wal", "index.sqlite-shm", ".lock"):
        (root / name).unlink(missing_ok=True)
    shutil.rmtree(shards, ignore_errors=True)
    return {"imported": len(rows), "skipped": skipped}
