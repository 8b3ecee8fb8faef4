"""The planner benchmark: one workload, measured end to end or layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload plan-cold --seed 0 --seconds 10 --trace 0

The workloads (``plan-cold``, ``serve-warm``, ``fleet-reliable``,
``fleet-slo``) and metrics are described in ``perfbench/README.md``.  Each
run starts fresh interpreters (``worker.py``) that do a fixed amount of
work for ``--seconds``.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it does the work of half the time untraced and
again traced, and reports the per-layer table of ``layers.py``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, make_inputs
from layers import LAYERS, unit_of
from stats import nearest_rank, scaled

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

#: Set-up-only spawns before and after the measured worker of an untraced
#: run; ``setup_s`` is the median over these and the worker's own set-up.
SETUP_SPAWNS = (2, 2)

#: Workers hash strings with a fixed seed.  Python picks a random one per
#: process by default, and on fleet-slo that alone moved ops_per_s by 8%
#: (inter-quartile distance over median, five runs of one seed; 0.7% with
#: the seed fixed).
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")

#: Every process this script starts must end before this many seconds.
RUN_DEADLINE_S = 170.0

#: ``trace.coverage`` below this means the layer table misses real work.
MIN_COVERAGE = 0.95


class WorkerError(RuntimeError):
    """A workload process failed, hung or produced no result."""


class Runner:
    """Spawns workload processes inside one scratch directory."""

    def __init__(self, workload: str, work: Path, deadline: float) -> None:
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.spawned = 0

    def store(self, label: str) -> Path:
        """The store a worker opens: the filled one on serve-warm, else a new one."""
        return self.work / ("store" if self.workload == "serve-warm" else label)

    def start(self, mode: str, store: Path, **options) -> tuple:
        """Start one worker; returns the handle :meth:`finish` waits on."""
        self.spawned += 1
        out = self.work / f"result-{self.spawned}.json"
        command = [
            sys.executable,
            str(WORKER),
            self.workload,
            mode,
            "--root",
            str(ROOT),
            "--store",
            str(store),
            "--out",
            str(out),
            "--inputs",
            str(self.work / "inputs.json"),
        ]
        for name, value in options.items():
            command += [f"--{name}", str(value)]
        started = time.perf_counter()
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=WORKER_ENV
        )
        return process, started, out

    def finish(self, handle: tuple) -> tuple:
        """Wait for a worker; returns (scaled set-up seconds, ready doc, out path).

        The set-up time is scaled by the probes the worker took while it set
        up (see :func:`stats.scaled`): probes taken in this process, on the
        other vCPU, do not follow the worker's speed.
        """
        process, started, out = handle
        try:
            ready_line = self._readline(process)
            setup_s = time.perf_counter() - started
            process.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except BaseException:
            process.kill()
            process.wait()
            raise
        if process.returncode != 0 or not ready_line:
            raise WorkerError(f"{self.workload} worker exited {process.returncode}")
        ready = json.loads(ready_line)
        return scaled(setup_s, ready["probes"]), ready, out

    def spawn(self, mode: str, store: Path, **options) -> tuple:
        return self.finish(self.start(mode, store, **options))

    def fill(self) -> Path:
        """Fill the serve-warm store; returns the file of cold-result references."""
        return self.spawn("fill", self.store("fill"))[2]

    def _readline(self, process) -> str:
        remaining = self.deadline - time.monotonic()
        readable, _, _ = select.select([process.stdout], [], [], max(0.0, remaining))
        if not readable:
            raise WorkerError(f"{self.workload} worker never became ready")
        return process.stdout.readline()


def end_to_end(runner: Runner, seconds: float, extra: dict) -> tuple:
    """Untraced run: set-up spawns plus one measured worker."""
    def setups(count: int) -> list:
        return [
            runner.spawn("setup", runner.store(f"setup-{runner.spawned}"))[0]
            for _ in range(count)
        ]

    before, after = SETUP_SPAWNS
    setup_samples = setups(before)
    setup_s, _, out = runner.spawn("run", runner.store("run"), seconds=seconds, **extra)
    setup_samples += [setup_s] + setups(after)
    result = json.loads(out.read_text())
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (result["ops"] / result["scaled_s"], "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} spawns, scaled to the reference speed",
        "ops_per_s": (
            f"{result['ops']} ops in {result['scaled_s']:.2f} s scaled, "
            f"{result['busy_s']:.2f} s measured: {result['ops'] / result['busy_s']:.1f} 1/s"
        ),
    }
    notes["extra"] = []
    if runner.workload in ("plan-cold", "serve-warm"):
        # Printed, not gated: host stalls set the tail on a shared VM.
        for percent in (50, 99):
            value, samples, beyond = nearest_rank(result["latencies_ms"], percent)
            notes["extra"].append(
                f"latency_p{percent}_ms {value:.4f} ms "
                f"({samples} samples, {beyond} beyond; measured, not scaled)"
            )
    return metrics, notes, [result]


def layered(runner: Runner, seconds: float, extra: dict) -> tuple:
    """Traced run: the work of half the time untraced, then again traced."""
    half = seconds / 2.0
    _, plain_ready, out = runner.spawn(
        "run", runner.store("plain"), seconds=half, trace=0, **extra
    )
    plain = json.loads(out.read_text())
    _, traced_ready, out = runner.spawn(
        "run", runner.store("traced"), seconds=half, trace=1, **extra
    )
    traced = json.loads(out.read_text())
    values = dict(traced["layers"])
    values["cli.import_s"] = statistics.median(
        [plain_ready["import_s"], traced_ready["import_s"]]
    )
    values["trace.overhead_ratio"] = (plain["ops"] / plain["scaled_s"]) / (
        traced["ops"] / traced["scaled_s"]
    )
    metrics = {
        name: (values[name], unit_of(name)) for row in LAYERS for name in row["metrics"]
    }
    top = list(traced["shares"].items())[:3]
    notes = {
        "dominant": f"{runner.workload}: {top[0][0]} is {top[0][1]:.1%} of traced wall "
        "(self time); next "
        + ", ".join(f"{name} {share:.1%}" for name, share in top[1:]),
        "silent": traced["silent"],
    }
    return metrics, notes, [plain, traced]


def print_report(workload: str, trace: bool, metrics: dict, notes: dict) -> None:
    print(f"perfbench {workload} ({'per-layer, traced' if trace else 'end-to-end'})")
    if not trace:
        for name, (value, unit) in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:<26} {value:>14.4f} {unit:<6}{note}")
        for line in notes["extra"]:
            print(f"  {line}")
        return
    for row in LAYERS:
        print(f"  [{row['layer']}] wraps: {', '.join(row['wraps']) or '-'}")
        for name in row["metrics"]:
            value, unit = metrics[name]
            print(f"      {name:<30} {value:>14.4f} {unit}")
        print(f"      moves: {row['moves']}")
    print(f"  dominant: {notes['dominant']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one planner benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        (work / "inputs.json").write_text(json.dumps(make_inputs(args.workload, args.seed)))
        runner = Runner(args.workload, work, deadline)
        extra = {}
        if args.workload == "serve-warm":
            extra["references"] = runner.fill()
        measure = layered if args.trace else end_to_end
        metrics, notes, results = measure(runner, args.seconds, extra)
    except WorkerError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()

    attempted = sum(result["ops"] for result in results)
    failed = sum(result["failed"] for result in results)
    correct = failed == 0
    if args.trace and metrics["trace.coverage"][0] < MIN_COVERAGE:
        print(f"perfbench: trace.coverage below {MIN_COVERAGE}", file=sys.stderr)
        correct = False
    if args.trace and notes["silent"]:
        print(f"perfbench: wrapped spans never called: {notes['silent']}", file=sys.stderr)
        correct = False
    print_report(args.workload, bool(args.trace), metrics, notes)
    print(f"  failed_ratio {failed / attempted:.4f} ({failed} of {attempted} operations)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
