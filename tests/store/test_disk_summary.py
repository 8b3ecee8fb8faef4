"""Freshness of ``disk_summary``: database plus WAL bytes, from a fresh stat.

The summary caches nothing.  After each mutation below, the handle that saw
it (or did not) must report exactly what a freshly opened handle on the
same root reports.
"""

import sys
import threading

import pytest

from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.store.store import ExperimentStore


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "store")


def _assert_fresh(store):
    assert store.disk_summary() == ExperimentStore(store.root).disk_summary()


class TestPuts:
    def test_summary_names_the_root_and_its_bytes(self, store):
        summary = store.disk_summary()
        assert set(summary) == {"root", "disk_bytes"}
        assert summary["root"] == str(store.root)
        assert summary["disk_bytes"] == sum(
            path.stat().st_size for path in store.root.glob("store.sqlite*")
            if not path.name.endswith("-shm")
        )

    def test_put_grows_the_database(self, store):
        store.put("run", {"cell": 0}, {"x": 0})
        before = store.disk_summary()
        store.put("run", {"cell": 1}, {"x": 1})
        assert store.disk_summary()["disk_bytes"] > before["disk_bytes"]
        _assert_fresh(store)

    def test_put_by_another_handle_is_seen_without_reopening(self, store):
        store.put("run", {"cell": 0}, {"x": 0})
        before = store.disk_summary()
        ExperimentStore(store.root).put("run", {"cell": 1}, {"x": 1})
        assert store.disk_summary()["disk_bytes"] > before["disk_bytes"]
        assert store.get("run", {"cell": 1}) == {"x": 1}
        _assert_fresh(store)


class TestResetPoints:
    def test_gc(self, store):
        for index in range(8):
            store.put("run", {"cell": index}, {"x": index})
        before = store.disk_summary()
        assert store.gc(max_records=1) == 7
        assert store.disk_summary()["disk_bytes"] < before["disk_bytes"]
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


class TestConcurrency:
    def test_threads_putting_and_summarising(self, store):
        """Threads sharing one handle lose no put and see a consistent file."""
        writers, puts_each = 8, 40
        stop = threading.Event()

        def write(worker):
            for n in range(puts_each):
                store.put("run", {"worker": worker, "n": n}, {"x": n})

        def summarise():
            while not stop.is_set():
                store.disk_summary()
                len(store)

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
