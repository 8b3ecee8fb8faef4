"""Tests of the on-disk experiment store: round-trips and failure modes."""

import json
import multiprocessing
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import StoreError, StoreSchemaError
import repro
from repro.store.keys import SCHEMA_VERSION, canonical_json, content_key
from repro.store.store import ExperimentStore


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "store")


class TestKeys:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_content_key_depends_on_kind_and_payload(self):
        payload = {"cell": "nas/cifar10", "steps": 6}
        assert content_key("run", payload) == content_key("run", dict(payload))
        assert content_key("run", payload) != content_key("estimate", payload)
        assert content_key("run", payload) != content_key("run", {**payload, "steps": 8})

    def test_content_key_rejects_nan(self):
        with pytest.raises(ValueError):
            content_key("run", {"value": float("nan")})

    def test_content_key_embeds_library_version(self, monkeypatch):
        """A simulator upgrade must re-address records, not serve stale ones."""
        import repro.store.keys as keys_module

        payload = {"cell": "nas/cifar10"}
        before = content_key("run", payload)
        monkeypatch.setattr(keys_module, "__version__", "999.0.0")
        assert content_key("run", payload) != before


class TestRoundTrip:
    def test_put_get(self, store):
        store.put("run", {"cell": "a"}, {"epoch_time_s": 1.25})
        assert store.get("run", {"cell": "a"}) == {"epoch_time_s": 1.25}
        assert store.get("run", {"cell": "b"}) is None

    def test_kind_namespaces_are_disjoint(self, store):
        store.put("run", {"cell": "a"}, {"x": 1})
        assert store.get("estimate", {"cell": "a"}) is None

    def test_persists_across_handles(self, store):
        store.put("run", {"cell": "a"}, {"x": 1})
        reopened = ExperimentStore(store.root)
        assert reopened.get("run", {"cell": "a"}) == {"x": 1}

    def test_duplicate_puts_last_wins(self, store):
        store.put("run", {"cell": "a"}, {"x": 1})
        store.put("run", {"cell": "a"}, {"x": 2})
        reopened = ExperimentStore(store.root)
        assert reopened.get("run", {"cell": "a"}) == {"x": 2}

    def test_contains_does_not_touch_hit_counters(self, store):
        store.put("run", {"cell": "a"}, {"x": 1})
        assert store.contains("run", {"cell": "a"})
        assert not store.contains("run", {"cell": "b"})
        stats = store.stats()
        assert (stats.hits, stats.misses) == (0, 0)

    def test_get_returns_a_private_copy(self, store):
        """Caller mutation must not poison later hydrations of the key."""
        store.put("run", {"cell": "a"}, {"metadata": {"split": [3, 5]}})
        first = store.get("run", {"cell": "a"})
        first["metadata"]["split"].append(99)
        first["metadata"]["evil"] = True
        assert store.get("run", {"cell": "a"}) == {"metadata": {"split": [3, 5]}}

    def test_hit_miss_counters(self, store):
        store.put("run", {"cell": "a"}, {"x": 1})
        store.get("run", {"cell": "a"})
        store.get("run", {"cell": "b"})
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)
        assert stats.hit_rate() == 0.5


class TestSchemaVersioning:
    def test_meta_written_on_create(self, store):
        meta = json.loads(store.meta_path.read_text())
        assert meta["schema_version"] == SCHEMA_VERSION

    def test_store_schema_mismatch_raises(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        meta = json.loads(store.meta_path.read_text())
        meta["schema_version"] = SCHEMA_VERSION + 1
        store.meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreSchemaError, match="schema version"):
            ExperimentStore(tmp_path / "store")

    def test_non_store_directory_is_refused(self, tmp_path):
        root = tmp_path / "notastore"
        root.mkdir()
        (root / "meta.json").write_text('{"something": "else"}')
        with pytest.raises(StoreError, match="not an experiment store"):
            ExperimentStore(root)

    def test_corrupt_meta_raises(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.meta_path.write_text("{not json")
        with pytest.raises(StoreError, match="unreadable"):
            ExperimentStore(tmp_path / "store")

    def test_corrupt_database_raises(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.close()  # so no WAL masks the file
        store.db_path.write_bytes(b"not a database" * 100)
        with pytest.raises(StoreError, match="cannot open store database"):
            ExperimentStore(tmp_path / "store")


class TestGc:
    def test_gc_keeps_newest_records(self, store):
        for index in range(6):
            store.put("run", {"cell": index}, {"x": index})
        evicted = store.gc(max_records=2)
        assert evicted == 4
        assert len(store) == 2
        # The newest records survive.
        survivors = sorted(record["value"]["x"] for record in store.records())
        assert survivors == [4, 5]

    def test_gc_by_age(self, store):
        store.put("run", {"cell": "old"}, {"x": 0})
        # Backdate the record straight in the database.
        with sqlite3.connect(store.db_path) as conn:
            conn.execute("UPDATE records SET ts = ?", (time.time() - 10_000,))
        store.put("run", {"cell": "new"}, {"x": 1})
        assert store.gc(max_age_seconds=3600) == 1
        assert [r["value"]["x"] for r in store.records()] == [1]

    def test_gc_rejects_negative_bound(self, store):
        with pytest.raises(StoreError):
            store.gc(max_records=-1)

    @pytest.mark.parametrize("age", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_gc_rejects_an_age_that_is_not_finite_and_non_negative(self, store, age):
        store.put("run", {"cell": "a"}, {"x": 1})
        with pytest.raises(StoreError, match="max_age_seconds"):
            store.gc(max_age_seconds=age)
        assert ExperimentStore(store.root).get("run", {"cell": "a"}) == {"x": 1}

    def test_gc_zero_age_is_accepted(self, store):
        assert store.gc(max_age_seconds=0) == 0


class TestExport:
    def test_export_round_trips_through_json(self, store):
        store.put("run", {"cell": "a"}, {"x": 1})
        store.put("estimate", {"cell": "a"}, {"y": 2})
        dump = json.loads(json.dumps(store.export()))
        assert dump["num_records"] == 2
        assert sorted(record["kind"] for record in dump["records"]) == [
            "estimate",
            "run",
        ]


#: Puts records until killed; says "ready" once 200 have committed.
_PUT_LOOP = """
import sys
from repro.store.store import ExperimentStore

store = ExperimentStore(sys.argv[1])
n = 0
while True:
    store.put("run", {"n": n}, {"n": n, "pad": "x" * 2000})
    n += 1
    if n == 200:
        print("ready", flush=True)
"""


def _open_and_count(root):
    """Process-pool opener: the record count its own handle sees."""
    return len(ExperimentStore(root))


def _put_many(root, worker, count):
    """Process-pool writer: ``count`` puts through its own store handle."""
    store = ExperimentStore(root)
    for n in range(count):
        store.put("run", {"worker": worker, "n": n}, {"x": n})
    return count


class TestCrashConsistency:
    def test_sigkill_mid_put_loop_leaves_a_consistent_store(self, tmp_path):
        root = tmp_path / "store"
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        child = subprocess.Popen(
            [sys.executable, "-c", _PUT_LOOP, str(root)],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            assert child.stdout.readline().strip() == b"ready"
            time.sleep(0.05)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=60)
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL

        store = ExperimentStore(root)
        records = list(store.records())  # every row's value parses
        assert len(store) == store.export()["num_records"] == len(records) >= 200
        assert sorted(r["value"]["n"] for r in records) == list(range(len(records)))
        store.put("run", {"after": "crash"}, {"ok": True})
        assert ExperimentStore(root).get("run", {"after": "crash"}) == {"ok": True}


class TestWritersRacingGc:
    def test_process_writers_lose_no_record_outside_the_eviction_set(self, store):
        """Each gc deletes exactly the rows it counts, so a record lost to the
        race shows up as a store smaller than writes minus evictions.
        """
        from concurrent.futures import ProcessPoolExecutor

        for n in range(50):
            store.put("run", {"seed": n}, {"x": n})
        evicted = gcs = 0
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=3, mp_context=spawn) as pool:
            futures = [pool.submit(_put_many, str(store.root), w, 150) for w in range(3)]
            while not all(future.done() for future in futures) or gcs == 0:
                evicted += store.gc(max_records=40)
                gcs += 1
            written = sum(future.result() for future in futures)
        assert evicted > 0
        assert len(store) == 50 + written - evicted
        assert len(ExperimentStore(store.root)) == len(store)


#: The records table as stores created before the rowid layout hold it.
_WITHOUT_ROWID_DDL = """
CREATE TABLE records (
    key    TEXT PRIMARY KEY,
    kind   TEXT NOT NULL,
    schema INTEGER NOT NULL,
    ts     REAL NOT NULL,
    value  TEXT NOT NULL
) WITHOUT ROWID
"""


def _records_ddl(db_path) -> str:
    conn = sqlite3.connect(db_path)
    try:
        return conn.execute(
            "SELECT sql FROM sqlite_master WHERE type = 'table' AND name = 'records'"
        ).fetchone()[0]
    finally:
        conn.close()


def _rows(db_path) -> list:
    conn = sqlite3.connect(db_path)
    try:
        return conn.execute(
            "SELECT key, kind, schema, ts, value FROM records ORDER BY key"
        ).fetchall()
    finally:
        conn.close()


def _old_layout_store(root) -> list:
    """A store whose records table predates the rowid layout; returns its rows."""
    ExperimentStore(root).close()
    for name in ("store.sqlite", "store.sqlite-wal", "store.sqlite-shm"):
        (root / name).unlink(missing_ok=True)
    rows = [
        (
            content_key(kind, {"n": n}),
            kind,
            SCHEMA_VERSION,
            1000.0 + n / 3,
            canonical_json({"n": n, "pad": "é" * (40 * n), "x": [0.1 * n, None, True]}),
        )
        for n, kind in enumerate(["run", "estimate", "run", "tune", "run"] * 4)
    ]
    conn = sqlite3.connect(root / "store.sqlite", isolation_level=None)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute(_WITHOUT_ROWID_DDL)
    conn.executemany("INSERT INTO records VALUES (?, ?, ?, ?, ?)", rows)
    conn.close()
    return sorted(rows)


class TestRowidLayout:
    def test_a_new_store_keeps_records_in_a_rowid_table(self, store):
        store.put("run", {"cell": 1}, {"x": 1})
        assert "WITHOUT ROWID" not in _records_ddl(store.db_path).upper()

    def test_an_old_store_is_converted_keeping_every_record(self, tmp_path):
        root = tmp_path / "store"
        before = _old_layout_store(root)
        assert "WITHOUT ROWID" in _records_ddl(root / "store.sqlite")
        store = ExperimentStore(root)
        assert "WITHOUT ROWID" not in _records_ddl(store.db_path).upper()
        assert _rows(store.db_path) == before  # keys, kinds, ts and value bytes
        assert len(store) == len(before)
        for key, kind, _, _, value in before:
            assert [r["value"] for r in store.records() if r["key"] == key] == [json.loads(value)]
        tables = sqlite3.connect(store.db_path).execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
        assert [name for (name,) in tables] == ["records"]
        store.put("run", {"after": "conversion"}, {"ok": True})
        assert store.get("run", {"after": "conversion"}) == {"ok": True}
        assert store.gc(max_records=3) == len(before) - 2

    def test_a_second_opener_does_not_convert_again(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        before = _old_layout_store(root)
        ExperimentStore(root).close()
        statements = []
        connect = sqlite3.connect

        def traced(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr("repro.store.store.sqlite3.connect", traced)
        store = ExperimentStore(root)
        assert statements and not any("ALTER" in s or "records_without" in s for s in statements)
        assert _rows(store.db_path) == before

    def test_the_conversion_checks_the_layout_again_in_its_transaction(self, tmp_path):
        from repro.store.store import _convert_without_rowid

        root = tmp_path / "store"
        before = _old_layout_store(root)
        ExperimentStore(root).close()  # converted by this opener
        conn = sqlite3.connect(root / "store.sqlite", isolation_level=None)
        statements = []
        conn.set_trace_callback(statements.append)
        _convert_without_rowid(conn)  # what a racing opener runs late
        conn.close()
        assert statements[0] == "BEGIN IMMEDIATE" and statements[-1] == "COMMIT"
        assert not any("ALTER" in s for s in statements)
        assert _rows(root / "store.sqlite") == before

    def test_openers_racing_on_an_old_store_convert_it_once(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        root = tmp_path / "store"
        before = _old_layout_store(root)
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=3, mp_context=spawn) as pool:
            counts = list(pool.map(_open_and_count, [str(root)] * 6))
        assert counts == [len(before)] * 6
        assert "WITHOUT ROWID" not in _records_ddl(root / "store.sqlite").upper()
        assert _rows(root / "store.sqlite") == before
