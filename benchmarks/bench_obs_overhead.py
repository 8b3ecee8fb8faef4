"""Telemetry overhead: an instrumented sweep vs the no-op-recorder path.

Every hot path in the codebase carries ``span(...)`` context managers and
metrics-registry updates.  With no :class:`~repro.obs.tracing.SpanRecorder`
installed (the default, and what every non-``profile`` entry point runs),
``span()`` returns a shared null singleton — the telemetry must then cost
nothing measurable.  This benchmark times ``Session.sweep`` over a fixed
grid both ways, interleaved with fresh sessions and min-of-N so process
warmup and scheduler noise cancel, and asserts the fully *recorded* run
stays within 5% of the no-op run.

The deterministic ``simulations`` count is gated by the perf-regression
CI job against ``benchmarks/baselines/obs_overhead.json``.
``overhead_ratio`` (recorded / no-op, ~1.0) is a wall-clock ratio, so it is
asserted here against its maximum and not compared with the baseline; the
raw millisecond timings are recorded for the report but ungated — absolute
speed is the business of ``bench_cluster_throughput`` /
``bench_serve_latency``.
"""

from __future__ import annotations

import gc
import time

from benchmarks.conftest import emit, emit_json
from repro.core.config import ExperimentConfig
from repro.core.reporting import format_table
from repro.core.session import Session
from repro.obs.tracing import SpanRecorder

REPEATS = 7
BATCH_SIZES = (128, 256)
GPU_COUNTS = (2, 4)
STRATEGIES = ("DP", "TR+DPU+AHD")
ASSERTED_MAX_OVERHEAD = 1.05


def _sweep_once(fast_steps, recorder):
    """One cold sweep on a fresh store-less session; returns (seconds, sweep)."""
    session = Session()
    base = ExperimentConfig(simulated_steps=fast_steps)

    def run():
        return session.sweep(
            base,
            batch_sizes=list(BATCH_SIZES),
            num_gpus=list(GPU_COUNTS),
            strategies=list(STRATEGIES),
        )

    start = time.perf_counter()
    if recorder is None:
        sweep = run()
    else:
        with recorder:
            sweep = run()
    return time.perf_counter() - start, sweep


def test_obs_overhead(fast_steps):
    # Untimed warmup: build model pairs / profiles once so neither arm pays
    # first-touch costs.
    _sweep_once(fast_steps, None)

    noop_times, recorded_times = [], []
    simulations = None
    gc_was_enabled = gc.isenabled()
    gc.disable()  # collector pauses are the dominant noise at this scale
    try:
        for repeat in range(REPEATS):
            # Alternate which arm goes first so drift (cache warmth, CPU
            # frequency) biases neither side.
            arms = ["noop", "recorded"]
            if repeat % 2:
                arms.reverse()
            sizes = {}
            for arm in arms:
                recorder = (
                    None if arm == "noop" else SpanRecorder(capacity=65536)
                )
                seconds, sweep = _sweep_once(fast_steps, recorder)
                (noop_times if arm == "noop" else recorded_times).append(seconds)
                sizes[arm] = len(sweep.cells) * len(sweep.strategies)
            # Both arms do identical deterministic work.
            assert sizes["noop"] == sizes["recorded"]
            simulations = sizes["noop"]
    finally:
        if gc_was_enabled:
            gc.enable()

    noop_ms = min(noop_times) * 1000.0
    recorded_ms = min(recorded_times) * 1000.0
    overhead_ratio = recorded_ms / noop_ms

    assert overhead_ratio <= ASSERTED_MAX_OVERHEAD, (
        f"recorded sweep is {overhead_ratio:.3f}x the no-op run "
        f"(bound {ASSERTED_MAX_OVERHEAD}x): {recorded_ms:.2f} ms vs "
        f"{noop_ms:.2f} ms"
    )

    payload = {
        "grid": {
            "batch_sizes": list(BATCH_SIZES),
            "gpu_counts": list(GPU_COUNTS),
            "strategies": list(STRATEGIES),
        },
        "repeats": REPEATS,
        "simulations": simulations,
        "noop_ms": noop_ms,
        "recorded_ms": recorded_ms,
        "overhead_ratio": overhead_ratio,
    }
    emit_json("obs_overhead", payload)

    rows = [
        ["no-op recorder", f"{noop_ms:.3f}"],
        ["span recorder installed", f"{recorded_ms:.3f}"],
    ]
    emit(
        "Telemetry overhead on Session.sweep (min of "
        f"{REPEATS} interleaved runs)",
        format_table(["arm", "sweep ms"], rows)
        + f"\noverhead ratio = {overhead_ratio:.4f} "
        f"(asserted <= {ASSERTED_MAX_OVERHEAD})",
    )
