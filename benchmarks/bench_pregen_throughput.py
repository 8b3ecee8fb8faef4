"""Pregen artifact throughput and read-path comparison at scale.

Two measurements back the pregenerated planning tables:

* **Generation / resume** — the ``precompute`` command over the smoke
  grid into a fresh store (rows/sec through the real simulate-and-write
  path), then an immediate re-run in a new session that must simulate
  **zero** cells (the resume no-op, priced in milliseconds).
* **Read path at >=100k rows** — a store bulk-filled to 100k records in
  one transaction, then read cold: every sampled key is a SQLite point
  query on a *fresh* store handle, the boot-against-artifact case.

Deterministic counts (``grid_size``, per-phase ``simulations``,
``rows`` / ``indexed_rows`` / ``samples``) are gated by the ±20% perf-regression CI
job against ``benchmarks/baselines/``; wall-clock numbers (rows/sec,
latency percentiles) are recorded for the report and asserted only
relatively, as everywhere else in the harness.
"""

from __future__ import annotations

import sqlite3
import tempfile
import time
from contextlib import closing

from benchmarks.conftest import emit, emit_json
from repro.commands import PrecomputeRequest, precompute
from repro.core.reporting import format_table
from repro.core.session import Session
from repro.store import ExperimentStore
from repro.store.keys import SCHEMA_VERSION, canonical_json, content_key
from tools.load_serve import percentile

#: Rows the read-path benchmark runs at.
READ_ROWS = 100_000

#: Cold lookups sampled, spread evenly across the key space.
READ_SAMPLES = 300


def _bulk_fill(root: str, rows: int) -> None:
    """Insert ``rows`` synthetic records into a store in one transaction.

    Going through ``ExperimentStore.put`` would pay a commit per row, which
    is the write path's business, not this read benchmark's.
    """
    store = ExperimentStore(root)
    ts = time.time()
    records = [
        (content_key("bench", {"i": i}), "bench", SCHEMA_VERSION, ts, canonical_json({"i": i}))
        for i in range(rows)
    ]
    with closing(sqlite3.connect(store.db_path)) as conn, conn:
        conn.executemany(
            "INSERT INTO records (key, kind, schema, ts, value) VALUES (?, ?, ?, ?, ?)",
            records,
        )


def _cold_read_latencies(root: str, sample: list) -> list:
    """Per-key cold-get latency via a fresh handle per lookup."""
    latencies = []
    for i in sample:
        store = ExperimentStore(root)
        start = time.perf_counter()
        value = store.get("bench", {"i": i})
        latencies.append(time.perf_counter() - start)
        store.close()
        assert value == {"i": i}, (i, value)
    return latencies


def _latency_stats(latencies: list) -> dict:
    return {
        "p50_ms": percentile(latencies, 0.50) * 1000.0,
        "p99_ms": percentile(latencies, 0.99) * 1000.0,
    }


def _timed_precompute(root: str):
    """``precompute --grid smoke`` on a new session: (payload, seconds)."""
    started = time.perf_counter()
    payload, _ = precompute(Session(store=root), PrecomputeRequest(grid="smoke"))
    return payload, time.perf_counter() - started


def test_pregen_generation_and_resume():
    with tempfile.TemporaryDirectory(prefix="repro-bench-pregen-") as root:
        cold, cold_s = _timed_precompute(root)
        resume, resume_s = _timed_precompute(root)

    assert cold["complete"] and resume["complete"]
    assert cold["simulated"] == cold["grid_size"]
    assert resume["simulated"] == 0, resume

    generation = {
        "grid_size": cold["grid_size"],
        "simulations": cold["simulated"],
        "rows_per_s": cold["grid_size"] / cold_s,
        "duration_s": cold_s,
    }
    resume_noop = {
        "simulations": resume["simulated"],
        "duration_s": resume_s,
    }
    payload = {"generation": generation, "resume": resume_noop}
    emit(
        "pregen: smoke-grid generation vs resume no-op",
        format_table(
            ["phase", "cells simulated", "seconds"],
            [
                ["cold generation", str(cold["simulated"]), f"{cold_s:.3f}"],
                ["resume (no-op)", str(resume["simulated"]), f"{resume_s:.3f}"],
            ],
        ),
    )
    emit_json("pregen_throughput", payload)


def test_cold_read_latency():
    with tempfile.TemporaryDirectory(prefix="repro-bench-reads-") as root:
        _bulk_fill(root, READ_ROWS)
        indexed_rows = len(ExperimentStore(root))
        assert indexed_rows == READ_ROWS

        step = READ_ROWS // READ_SAMPLES
        sample = list(range(0, READ_ROWS, step))[:READ_SAMPLES]
        sqlite = _latency_stats(_cold_read_latencies(root, sample))

    payload = {
        "rows": READ_ROWS,
        "indexed_rows": indexed_rows,
        "samples": READ_SAMPLES,
        "sqlite": sqlite,
    }
    emit(
        f"store reads at {READ_ROWS} rows (cold, fresh handle per key)",
        format_table(
            ["store", "p50 ms", "p99 ms"],
            [["sqlite", f"{sqlite['p50_ms']:.3f}", f"{sqlite['p99_ms']:.3f}"]],
        ),
    )
    emit_json("pregen_read_paths", payload)
