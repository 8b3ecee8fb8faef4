"""Serve hot-path latency: store-backed warm requests vs cold simulations.

Measures in-process dispatch latency of ``POST /v1/plan`` through the
:class:`~repro.serve.client.LocalClient` (no sockets, so the numbers are
the service's own work, not TCP noise): a **cold** pass over a grid of
distinct cells (every request plans, simulates and writes through the
store) and **warm** passes over the same grid (every request must answer
from the store with zero simulations).

The deterministic work accounting (``simulations`` per phase,
``cold_hit_rate`` / ``warm_hit_rate``, ``grid_size``, and
``store_lookups``: the SQLite lookups of the warm passes, one per distinct
cell because a session keeps each result it reads) is gated by the
perf-regression CI job against ``benchmarks/baselines/``; the
latency percentiles are recorded for the report and asserted only
relatively — warm p99 must stay below cold p50, the acceptance bar for
the zero-simulation hot path.  ``tools/load_serve.py`` is the
over-the-wire twin of this benchmark.
"""

from __future__ import annotations

import tempfile
import time

from benchmarks.conftest import emit, emit_json
from repro.core.reporting import format_table
from tools.load_serve import build_grid, percentile

GRID_SIZE = 12
WARM_PASSES = 3


def _measure(client, bodies):
    latencies = []
    simulations = 0
    warm_hits = 0
    for body in bodies:
        start = time.perf_counter()
        response = client.post("/v1/plan", json=body)
        latencies.append(time.perf_counter() - start)
        assert response.status_code == 200, response.json()
        request_meta = response.json()["meta"]["request"]
        simulations += request_meta["simulations"]
        warm_hits += 1 if request_meta["warm"] else 0
    return latencies, simulations, warm_hits


def _stats(latencies, simulations):
    return {
        "p50_ms": percentile(latencies, 0.50) * 1000.0,
        "p95_ms": percentile(latencies, 0.95) * 1000.0,
        "p99_ms": percentile(latencies, 0.99) * 1000.0,
        "simulations": simulations,
    }


def test_serve_latency(fast_steps):
    from repro.serve.client import LocalClient
    from repro.serve.service import PlannerService

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as root:
        service = PlannerService(store=root)
        client = LocalClient(service)
        grid = build_grid(GRID_SIZE, fast_steps)

        cold_latencies, cold_simulations, cold_warm = _measure(client, grid)
        warm_bodies = [body for _ in range(WARM_PASSES) for body in grid]
        before = service.session.store.stats()
        warm_latencies, warm_simulations, warm_warm = _measure(client, warm_bodies)
        after = service.session.store.stats()
        store_lookups = after.hits + after.misses - before.hits - before.misses

    cold = _stats(cold_latencies, cold_simulations)
    warm = _stats(warm_latencies, warm_simulations)

    # The zero-simulation guarantee, in both work and latency terms.
    assert cold_simulations == GRID_SIZE
    assert warm_simulations == 0
    assert warm_warm == len(warm_bodies)
    assert store_lookups == GRID_SIZE, store_lookups
    assert warm["p99_ms"] < cold["p50_ms"], (warm, cold)

    payload = {
        "grid_size": GRID_SIZE,
        "warm_passes": WARM_PASSES,
        "cold_hit_rate": cold_warm / GRID_SIZE,
        "warm_hit_rate": warm_warm / len(warm_bodies),
        "store_lookups": store_lookups,
        "cold": cold,
        "warm": warm,
        "warm_p99_over_cold_p50": warm["p99_ms"] / cold["p50_ms"],
    }
    emit_json("serve_latency", payload)

    rows = [
        [
            phase,
            f"{stats['p50_ms']:.3f}",
            f"{stats['p95_ms']:.3f}",
            f"{stats['p99_ms']:.3f}",
            str(stats["simulations"]),
        ]
        for phase, stats in (("cold", cold), ("warm", warm))
    ]
    emit(
        "Serve latency: store-backed warm requests vs cold simulations",
        format_table(["phase", "p50 ms", "p95 ms", "p99 ms", "simulations"], rows)
        + f"\nwarm p99 / cold p50 = {payload['warm_p99_over_cold_p50']:.4f}",
    )
