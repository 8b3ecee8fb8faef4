"""The on-disk experiment store: content-addressed, shard-per-prefix JSONL.

Layout (all under one root directory)::

    <root>/meta.json            # {"magic": "repro-store", "schema_version": N}
    <root>/shards/<pp>.jsonl    # records whose key starts with hex prefix pp
    <root>/quarantine/<pp>.jsonl# corrupt / wrong-schema lines, moved aside

Each record is one JSON line ``{"key", "kind", "schema", "ts", "value"}``
addressed by the canonical content key of :mod:`repro.store.keys`.  Design
rules, in order of importance:

* **Durability over cleverness** — writes are single ``write()`` appends of
  one ``\\n``-terminated line to an ``O_APPEND`` handle, which POSIX keeps
  atomic at these sizes, so concurrent writers (the ``process`` execution
  backend, parallel CI shards) interleave whole lines, never torn ones.
  Shard *rewrites* (gc, quarantine sweeps) go through a temp file and
  ``os.replace``.
* **Corruption is quarantined, not fatal** — a line that fails to parse, is
  missing fields, or carries a foreign schema version is moved to
  ``quarantine/`` and the shard is rewritten without it; every valid record
  keeps serving.
* **Versioned schema** — ``meta.json`` pins the store's schema version; a
  mismatch raises :class:`~repro.errors.StoreSchemaError` instead of
  silently serving stale shapes.
* **Duplicates are harmless** — two processes racing the same cell append
  identical content under the same key; the reader keeps the last.

Documented in ``docs/CACHING.md`` (store layout and gc policy).
"""

from __future__ import annotations

import copy
import json
import math
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.errors import StoreError, StoreSchemaError
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.store.keys import SCHEMA_VERSION, canonical_json, content_key

#: Bucket boundaries for the lines-scanned-per-shard histogram (records,
#: not seconds — sized for shards from a handful of lines to ~100k).
SCAN_LINE_BUCKETS = (1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0)

#: Identifies a directory as an experiment store (guards against pointing
#: ``--store`` at an unrelated directory and gc'ing it).
STORE_MAGIC = "repro-store"

#: Fields every record line must carry to be considered valid.
RECORD_FIELDS = ("key", "kind", "schema", "ts", "value")


@dataclass
class StoreStats:
    """Point-in-time snapshot of a store plus its runtime counters.

    Example:
        >>> from repro.store.store import StoreStats
        >>> StoreStats(records=10, hits=30, misses=10).hit_rate()
        0.75
    """

    records: int = 0
    shards: int = 0
    disk_bytes: int = 0
    quarantined_records: int = 0
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

    def __init__(self, root: Union[str, Path], reader: str = "auto") -> None:
        self.root = Path(root)
        #: Guards the in-memory index, shard sizes and counters only — held
        #: briefly (the longest hold is one shard-directory walk), and never
        #: while waiting on the flock, so index reads are never stalled by
        #: another process's long-held flock.
        self._lock = threading.RLock()
        #: Serialises this process's *disk mutators* (appends, rewrites) and
        #: carries the cross-process flock.  Lock ordering is always
        #: ``_disk_rlock`` before ``_lock``; nothing acquires them reversed.
        self._disk_rlock = threading.RLock()
        #: Per-shard in-memory index, loaded lazily: prefix -> {key: record}.
        self._index: Dict[str, Dict[str, dict]] = {}
        #: Shard prefix -> bytes on disk as this handle last saw them, for
        #: :meth:`disk_summary`.  None until first asked for; dropped back to
        #: None wherever ``_index`` is dropped, so both share one freshness
        #: rule.
        self._shard_bytes: Optional[Dict[str, int]] = None
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0
        #: Re-entrancy depth of the flock (guarded by ``_disk_rlock``, so
        #: only the owning thread can observe or change it).
        self._disk_lock_depth = 0
        self._disk_lock_handle = None
        #: Attached SQLite index handle (None while reading via shard scans).
        self._index_handle = None
        self._open()
        # Resolve the read strategy last: ``auto`` inspects the on-disk
        # layout (picking the SQLite index when one exists), so the store
        # directory must already be validated.
        from repro.store.index import resolve_reader

        self._reader = resolve_reader(self, reader)

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    @property
    def shards_dir(self) -> Path:
        return self.root / "shards"

    @property
    def reader_name(self) -> str:
        """Name of the active read strategy (``"scan"`` or ``"sqlite"``)."""
        return self._reader.name

    def attach_index(self, index) -> None:
        """Attach (or detach, with None) a SQLite index handle.

        With an index attached, reads go through it and every
        :meth:`put` mirrors its append into the index; detaching falls
        reads back to shard scans.  :func:`repro.store.index.build_index`
        and :func:`~repro.store.index.drop_index` are the public entry
        points — they keep the on-disk file and this handle in step.
        """
        from repro.store.index import READERS

        self._index_handle = index
        self._reader = READERS.get("sqlite" if index is not None else "scan")

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    @property
    def meta_path(self) -> Path:
        return self.root / "meta.json"

    def _open(self) -> None:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self.shards_dir.mkdir(exist_ok=True)
            self.quarantine_dir.mkdir(exist_ok=True)
        except OSError as error:
            # e.g. --store pointing at an existing file, or an unwritable
            # parent: surface a library error the CLI reports cleanly
            # instead of a raw FileExistsError traceback.
            raise StoreError(
                f"cannot open experiment store at {self.root} ({error}); "
                "--store must name a writable directory"
            ) from error
        if self.meta_path.exists():
            try:
                meta = json.loads(self.meta_path.read_text())
            except (OSError, json.JSONDecodeError) as error:
                raise StoreError(
                    f"store meta {self.meta_path} is unreadable ({error}); "
                    "delete the directory to start a fresh store"
                ) from error
            if meta.get("magic") != STORE_MAGIC:
                raise StoreError(
                    f"{self.root} is not an experiment store (bad magic in "
                    "meta.json); refusing to touch it"
                )
            if meta.get("schema_version") != SCHEMA_VERSION:
                raise StoreSchemaError(
                    f"store {self.root} has schema version "
                    f"{meta.get('schema_version')!r} but this library writes "
                    f"version {SCHEMA_VERSION}; migrate or use a fresh --store "
                    "path"
                )
        else:
            self._write_atomic(
                self.meta_path,
                json.dumps(
                    {"magic": STORE_MAGIC, "schema_version": SCHEMA_VERSION},
                    indent=2,
                )
                + "\n",
            )

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

    @contextmanager
    def _disk_mutation_lock(self):
        """Exclusive inter-process lock over every disk mutation.

        Appends are single atomic lines, but shard *rewrites* (quarantine
        sweeps, gc) read-modify-replace whole files: without exclusion, a
        record appended by another process between the read and the
        ``os.replace`` would be silently dropped.  All mutators — appends
        included — therefore serialise on ``<root>/.lock`` via ``flock``.
        Re-entrant within a thread; a no-op where ``fcntl`` is missing.

        Deliberately does NOT touch ``_lock``: a mutator blocking on
        another process's flock (e.g. a long ``cache gc`` elsewhere) must
        not stall this process's pure in-memory index reads.
        """
        with self._disk_rlock:
            self._disk_lock_depth += 1
            if self._disk_lock_depth == 1 and fcntl is not None:
                self._disk_lock_handle = open(self.root / ".lock", "a")
                fcntl.flock(self._disk_lock_handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                self._disk_lock_depth -= 1
                if self._disk_lock_depth == 0 and self._disk_lock_handle is not None:
                    fcntl.flock(self._disk_lock_handle, fcntl.LOCK_UN)
                    self._disk_lock_handle.close()
                    self._disk_lock_handle = None

    @staticmethod
    def _prefix(key: str) -> str:
        return key[:2]

    def _shard_path(self, prefix: str) -> Path:
        return self.shards_dir / f"{prefix}.jsonl"

    # ------------------------------------------------------------------ #
    # Shard loading and quarantine
    # ------------------------------------------------------------------ #
    def _load_shard(self, prefix: str) -> Dict[str, dict]:
        """Parse one shard, quarantining invalid lines, and cache its index."""
        with self._lock:
            if prefix in self._index:
                return self._index[prefix]
        index, bad_lines = self._read_shard(prefix)
        if bad_lines:
            # Re-read under the inter-process mutation lock: another process
            # may have appended valid records since the optimistic read, and
            # the quarantine rewrite must not drop them.
            with self._disk_mutation_lock():
                index, bad_lines = self._read_shard(prefix)
                if bad_lines:
                    self._quarantine(prefix, bad_lines, index)
        with self._lock:
            # Another thread may have finished loading first; keep its view.
            return self._index.setdefault(prefix, index)

    def _read_shard(self, prefix: str):
        """One pass over a shard file: (key -> record index, invalid lines).

        Every pass is timed and sized into the ``repro_store_shard_scan_*``
        histograms, which show whether shard scans dominate a serve latency
        profile (the SQLite index of :mod:`repro.store.index` is the fix).
        """
        path = self._shard_path(prefix)
        index: Dict[str, dict] = {}
        bad_lines: List[str] = []
        lines_scanned = 0
        started = time.perf_counter()
        with span("store.scan", shard=prefix):
            if path.exists():
                for line in path.read_text().splitlines():
                    if not line.strip():
                        continue
                    lines_scanned += 1
                    record = self._parse_record(line)
                    if record is None:
                        bad_lines.append(line)
                    else:
                        index[record["key"]] = record
        registry = get_registry()
        registry.histogram(
            "repro_store_shard_scan_seconds", "wall time of one JSONL shard scan"
        ).observe(time.perf_counter() - started)
        registry.histogram(
            "repro_store_shard_scan_lines",
            "record lines parsed per shard scan",
            buckets=SCAN_LINE_BUCKETS,
        ).observe(lines_scanned)
        return index, bad_lines

    @staticmethod
    def _parse_record(line: str) -> Optional[dict]:
        """A valid record dict, or None when the line must be quarantined."""
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(record, dict):
            return None
        if any(field not in record for field in RECORD_FIELDS):
            return None
        if record["schema"] != SCHEMA_VERSION:
            return None
        return record

    def _quarantine(self, prefix: str, bad_lines: List[str], index: Dict[str, dict]) -> None:
        """Move invalid lines aside and rewrite the shard with valid records.

        Callers must hold the disk mutation lock and pass an ``index`` read
        under it.
        """
        quarantine_path = self.quarantine_dir / f"{prefix}.jsonl"
        with open(quarantine_path, "a") as handle:
            handle.write("".join(line + "\n" for line in bad_lines))
        body = "".join(canonical_json(record) + "\n" for record in index.values())
        shard = self._shard_path(prefix)
        if body:
            self._write_atomic(shard, body)
        elif shard.exists():
            shard.unlink()
        with self._lock:
            self._shard_bytes = None

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #
    def get(self, kind: str, key_payload: dict) -> Optional[dict]:
        """The stored value for a key, or None (counted as hit / miss).

        The value is deep-copied out of the in-memory index: results are
        hydrated from it by reference-heavy code (plans, metadata dicts)
        that may mutate what it receives, and a caller's mutation must
        never poison later hydrations of the same key.
        """
        key = content_key(kind, key_payload)
        with span("store.get", kind=kind):
            record = self._reader.lookup(self, key)
            hit = record is not None and record["kind"] == kind
            with self._lock:
                if hit:
                    self._hits += 1
                else:
                    self._misses += 1
            get_registry().counter(
                "repro_store_lookups_total", "store lookups by result"
            ).inc(result="hit" if hit else "miss")
            if not hit:
                return None
            with span("store.hydrate", kind=kind):
                return copy.deepcopy(record["value"])

    def contains(self, kind: str, key_payload: dict) -> bool:
        """Whether a record exists, without touching the hit/miss counters."""
        key = content_key(kind, key_payload)
        record = self._reader.lookup(self, key)
        return record is not None and record["kind"] == kind

    def put(self, kind: str, key_payload: dict, value: dict) -> str:
        """Persist one record (single atomic line append); returns its key."""
        key = content_key(kind, key_payload)
        record = {
            "key": key,
            "kind": kind,
            "schema": SCHEMA_VERSION,
            "ts": time.time(),
            "value": value,
        }
        line = canonical_json(record) + "\n"
        prefix = self._prefix(key)
        with span("store.put", kind=kind, shard=prefix):
            with self._disk_mutation_lock():
                with open(self._shard_path(prefix), "a") as handle:
                    handle.write(line)
                    handle.flush()
                    # Exact even if another process appended to this shard:
                    # the flock orders every append before this one.
                    shard_bytes = os.fstat(handle.fileno()).st_size
                if self._index_handle is not None:
                    # Mirror the append while still holding the flock, so
                    # the index can never carry a row the shards lack.
                    self._index_handle.insert(record)
                with self._lock:
                    if prefix in self._index:
                        self._index[prefix][key] = record
                    if self._shard_bytes is not None:
                        self._shard_bytes[prefix] = shard_bytes
                    self._puts += 1
        get_registry().counter(
            "repro_store_puts_total", "records appended to the store"
        ).inc(kind=kind)
        return key

    def refresh(self) -> None:
        """Drop the in-memory index and shard sizes so later reads and
        :meth:`disk_summary` see other writers' lines."""
        with self._lock:
            self._index.clear()
            self._shard_bytes = None

    def _quarantined_on_disk(self) -> int:
        """Count of lines currently parked in the quarantine directory."""
        return sum(
            sum(1 for line in path.read_text().splitlines() if line.strip())
            for path in self.quarantine_dir.glob("*.jsonl")
        )

    # ------------------------------------------------------------------ #
    # Whole-store operations
    # ------------------------------------------------------------------ #
    def _shard_prefixes(self) -> List[str]:
        return sorted(path.stem for path in self.shards_dir.glob("*.jsonl"))

    def records(self) -> Iterator[dict]:
        """Every valid record, shard by shard (loads the whole store)."""
        for prefix in self._shard_prefixes():
            yield from list(self._load_shard(prefix).values())

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    def gc(
        self,
        max_records: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
    ) -> int:
        """Evict expired / excess records; returns how many were dropped.

        Age eviction drops records older than ``max_age_seconds``; capacity
        eviction then keeps only the ``max_records`` newest.  Surviving
        shards are rewritten atomically; quarantined lines are purged.

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
        with self._disk_mutation_lock():
            # Reload under the lock so concurrent appenders cannot slip a
            # record between the read and the shard rewrites below.
            with self._lock:
                self._index.clear()
            pinned_keys = self._pinned_keys()
            all_records = list(self.records())
            pinned = [r for r in all_records if r["key"] in pinned_keys]
            survivors = [r for r in all_records if r["key"] not in pinned_keys]
            before = len(survivors)
            if max_age_seconds is not None:
                horizon = time.time() - max_age_seconds
                survivors = [r for r in survivors if r["ts"] >= horizon]
            if max_records is not None and len(survivors) > max_records:
                survivors.sort(key=lambda record: record["ts"])
                survivors = survivors[len(survivors) - max_records:]
            evicted = before - len(survivors)
            survivors.extend(pinned)

            by_prefix: Dict[str, List[dict]] = {}
            for record in survivors:
                by_prefix.setdefault(self._prefix(record["key"]), []).append(record)
            for prefix in self._shard_prefixes():
                keep = by_prefix.get(prefix, [])
                shard = self._shard_path(prefix)
                if keep:
                    self._write_atomic(
                        shard, "".join(canonical_json(r) + "\n" for r in keep)
                    )
                elif shard.exists():
                    shard.unlink()
            for stale in self.quarantine_dir.glob("*.jsonl"):
                stale.unlink()
            if self._index_handle is not None:
                # The shard rewrites above invalidated the SQLite mirror;
                # rebuild it from the survivors while still holding the
                # flock so no appender can race the two representations
                # apart.
                self._index_handle.replace_all(survivors)
            with self._lock:
                self._index.clear()
                self._shard_bytes = None
                self._evictions += evicted
            return evicted

    def _pinned_keys(self) -> frozenset:
        """Content keys pinned by a pregen ``manifest.json`` in the root.

        Imported lazily: :mod:`repro.store.pregen` builds on this module.
        """
        from repro.store.pregen import manifest_record_keys

        return manifest_record_keys(self.root)

    def export(self) -> dict:
        """JSON-serialisable dump of the whole store (``cache export``)."""
        records = sorted(self.records(), key=lambda record: record["key"])
        return {
            "schema_version": SCHEMA_VERSION,
            "root": str(self.root),
            "num_records": len(records),
            "records": records,
        }

    def disk_summary(self) -> dict:
        """This handle's view of the shard directory, without parsing records.

        Shard sizes are walked once and then kept: :meth:`put` records the
        size of the shard it appended to, and :meth:`refresh`, :meth:`gc`
        and quarantine rewrites drop them for the next call to re-walk —
        the same freshness rule as the record index.  Cheap enough for
        every CLI and ``/v1/plan`` payload; use :meth:`stats` /
        ``cache stats`` when record counts by kind are worth a full load.
        """
        from repro.store.index import index_summary

        with self._lock:
            if self._shard_bytes is None:
                self._shard_bytes = self._walk_shard_bytes()
            summary = {
                "root": str(self.root),
                "shards": len(self._shard_bytes),
                "disk_bytes": sum(self._shard_bytes.values()),
            }
        summary.update(index_summary(self))
        return summary

    def _walk_shard_bytes(self) -> Dict[str, int]:
        """Shard prefix -> file size, from one directory walk."""
        with os.scandir(self.shards_dir) as entries:
            return {
                entry.name[: -len(".jsonl")]: entry.stat().st_size
                for entry in entries
                if entry.name.endswith(".jsonl")
            }

    def _build_stats(self, num_records: int) -> StoreStats:
        """Assemble a :class:`StoreStats` from a just-completed record walk.

        Callers walk the records first: lazy shard loading is what performs
        the quarantine sweep, so the quarantine directory must be inspected
        *after* the walk.
        """
        disk = self.disk_summary()
        quarantined = self._quarantined_on_disk()
        with self._lock:
            return StoreStats(
                records=num_records,
                shards=disk["shards"],
                disk_bytes=disk["disk_bytes"],
                quarantined_records=quarantined,
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                evictions=self._evictions,
            )

    def stats(self) -> StoreStats:
        """Disk-level aggregates plus this handle's runtime counters."""
        return self._build_stats(sum(1 for _ in self.records()))

    def overview(self) -> dict:
        """Stats plus a per-record-kind histogram, from one record walk."""
        kinds: Dict[str, int] = {}
        num_records = 0
        for record in self.records():
            num_records += 1
            kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
        return {
            "root": str(self.root),
            "stats": self._build_stats(num_records).to_dict(),
            "records_by_kind": dict(sorted(kinds.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExperimentStore(root={str(self.root)!r})"


def open_store(
    store: Union["ExperimentStore", str, Path, None]
) -> Optional[ExperimentStore]:
    """Coerce a store argument (instance, path or None) to a store handle."""
    if store is None or isinstance(store, ExperimentStore):
        return store
    return ExperimentStore(store)
