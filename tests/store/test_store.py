"""Tests of the on-disk experiment store: round-trips and failure modes."""

import json
import time

import pytest

from repro.errors import StoreError, StoreSchemaError
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


class TestCorruptionQuarantine:
    def _any_shard(self, store):
        shards = list(store.shards_dir.glob("*.jsonl"))
        assert shards, "expected at least one shard"
        return shards[0]

    def test_truncated_line_is_quarantined_and_rest_served(self, store):
        store.put("run", {"cell": "a"}, {"x": 1})
        shard = self._any_shard(store)
        with open(shard, "a") as handle:
            handle.write('{"key": "dead", "kind": "run", "sch\n')
        reopened = ExperimentStore(store.root)
        assert reopened.get("run", {"cell": "a"}) == {"x": 1}
        assert reopened.stats().quarantined_records == 1
        # The corrupt line was moved aside, not deleted.
        quarantined = list(reopened.quarantine_dir.glob("*.jsonl"))
        assert len(quarantined) == 1
        # The rewritten shard parses cleanly line by line.
        for line in self._any_shard(reopened).read_text().splitlines():
            json.loads(line)

    def test_missing_fields_are_quarantined(self, store):
        store.put("run", {"cell": "a"}, {"x": 1})
        shard = self._any_shard(store)
        with open(shard, "a") as handle:
            handle.write('{"key": "k", "kind": "run"}\n')
        reopened = ExperimentStore(store.root)
        assert reopened.stats().quarantined_records == 1

    def test_foreign_record_schema_is_quarantined(self, store):
        store.put("run", {"cell": "a"}, {"x": 1})
        shard = self._any_shard(store)
        alien = {
            "key": "k" * 64,
            "kind": "run",
            "schema": SCHEMA_VERSION + 7,
            "ts": time.time(),
            "value": {},
        }
        with open(shard, "a") as handle:
            handle.write(json.dumps(alien) + "\n")
        reopened = ExperimentStore(store.root)
        assert reopened.get("run", {"cell": "a"}) == {"x": 1}
        assert reopened.stats().quarantined_records == 1


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
        # Backdate the record by rewriting its shard with an ancient ts.
        for shard in store.shards_dir.glob("*.jsonl"):
            record = json.loads(shard.read_text())
            record["ts"] = time.time() - 10_000
            shard.write_text(json.dumps(record) + "\n")
        store.refresh()
        store.put("run", {"cell": "new"}, {"x": 1})
        assert store.gc(max_age_seconds=3600) == 1
        assert [r["value"]["x"] for r in store.records()] == [1]

    def test_gc_purges_quarantine(self, store):
        store.put("run", {"cell": "a"}, {"x": 1})
        shard = next(iter(store.shards_dir.glob("*.jsonl")))
        with open(shard, "a") as handle:
            handle.write("garbage\n")
        reopened = ExperimentStore(store.root)
        assert reopened.stats().quarantined_records == 1
        reopened.gc(max_records=10)
        assert reopened.stats().quarantined_records == 0
        assert reopened.get("run", {"cell": "a"}) == {"x": 1}

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
