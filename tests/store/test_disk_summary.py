"""Freshness of the per-handle ``disk_summary``.

The summary's shard sizes are kept in memory after one directory walk.
After each mutation below, the handle that saw it must report exactly what
a freshly opened handle on the same root reports.
"""

import itertools
import sys
import threading

import pytest

from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.store.index import build_index
from repro.store.keys import content_key
from repro.store.store import ExperimentStore


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "store")


def _payloads():
    """Distinct ``run`` key payloads, in a fixed order."""
    return ({"cell": n} for n in itertools.count())


def _prefix(payload):
    return content_key("run", payload)[:2]


def _in_shard(prefix, skip=()):
    """The first payload outside ``skip`` whose record lands in ``prefix``."""
    return next(p for p in _payloads() if _prefix(p) == prefix and p not in skip)


def _outside_shards(prefixes):
    """The first payload whose record lands in none of ``prefixes``."""
    return next(p for p in _payloads() if _prefix(p) not in prefixes)


def _assert_fresh(store):
    assert store.disk_summary() == ExperimentStore(store.root).disk_summary()


class TestPuts:
    def test_put_creating_a_new_shard(self, store):
        first = {"cell": 0}
        store.put("run", first, {"x": 0})
        before = store.disk_summary()
        store.put("run", _outside_shards({_prefix(first)}), {"x": 1})
        assert store.disk_summary()["shards"] == before["shards"] + 1
        _assert_fresh(store)

    def test_put_to_an_existing_shard(self, store):
        first = {"cell": 0}
        store.put("run", first, {"x": 0})
        before = store.disk_summary()
        store.put("run", _in_shard(_prefix(first), skip=[first]), {"x": 1})
        after = store.disk_summary()
        assert after["shards"] == before["shards"]
        assert after["disk_bytes"] > before["disk_bytes"]
        _assert_fresh(store)

    def test_put_after_another_handle_appended_to_the_same_shard(self, store):
        """No refresh: the put still reports the shard's exact size."""
        first = {"cell": 0}
        store.put("run", first, {"x": 0})
        store.disk_summary()
        other = ExperimentStore(store.root)
        second = _in_shard(_prefix(first), skip=[first])
        other.put("run", second, {"x": 1})
        store.put("run", _in_shard(_prefix(first), skip=[first, second]), {"x": 2})
        _assert_fresh(store)


class TestResetPoints:
    def test_quarantine_sweep(self, store):
        payload = {"cell": 0}
        store.put("run", payload, {"x": 0})
        store.put("run", _outside_shards({_prefix(payload)}), {"x": 1})
        shard = store.shards_dir / f"{_prefix(payload)}.jsonl"
        with open(shard, "a") as handle:
            handle.write("garbage\n")
        reader = ExperimentStore(store.root)
        before = reader.disk_summary()
        assert reader.get("run", payload) == {"x": 0}  # sweeps the shard
        assert reader.disk_summary()["disk_bytes"] < before["disk_bytes"]
        _assert_fresh(reader)

    def test_gc(self, store):
        for index in range(8):
            store.put("run", {"cell": index}, {"x": index})
        before = store.disk_summary()
        assert store.gc(max_records=1) == 7
        assert store.disk_summary()["disk_bytes"] < before["disk_bytes"]
        _assert_fresh(store)

    def test_second_handle_appends_then_refresh(self, store):
        first = {"cell": 0}
        store.put("run", first, {"x": 0})
        store.disk_summary()
        other = ExperimentStore(store.root)
        other.put("run", _in_shard(_prefix(first), skip=[first]), {"x": 1})
        other.put("run", _outside_shards({_prefix(first)}), {"x": 2})
        store.refresh()
        _assert_fresh(store)

    def test_process_backend_sweep(self, tmp_path):
        session = Session(store=tmp_path / "store")
        before = session.store.disk_summary()
        session.sweep(
            ExperimentConfig(task="nas", dataset="cifar10", simulated_steps=4),
            batch_sizes=(128, 256),
            strategies=("DP", "TR"),
            backend="process",
            max_workers=2,
        )
        assert session.store.disk_summary()["disk_bytes"] > before["disk_bytes"]
        _assert_fresh(session.store)

    def test_build_index(self, store):
        store.put("run", {"cell": 0}, {"x": 0})
        store.disk_summary()
        ExperimentStore(store.root).put("run", {"cell": 1}, {"x": 1})
        build_index(store)
        summary = store.disk_summary()
        assert summary["indexed"] and summary["reader"] == "sqlite"
        _assert_fresh(store)


class TestConcurrency:
    def test_threads_putting_summarising_and_refreshing(self, store):
        """A size lost between a put and the summary map shows as a mismatch."""
        writers, puts_each = 8, 40
        stop = threading.Event()

        def write(worker):
            for n in range(puts_each):
                store.put("run", {"worker": worker, "n": n}, {"x": n})

        def summarise():
            calls = 0
            while not stop.is_set():
                calls += 1
                if calls % 7 == 0:
                    store.refresh()
                # Last in the loop, so the map ends filled by a walk that may
                # have raced the final puts.
                store.disk_summary()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=summarise) for _ in range(2)]
            threads = [
                threading.Thread(target=write, args=(worker,))
                for worker in range(writers)
            ]
            for thread in readers + threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers + threads)
        assert len(ExperimentStore(store.root)) == writers * puts_each
        _assert_fresh(store)
