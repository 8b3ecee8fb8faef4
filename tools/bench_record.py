#!/usr/bin/env python
"""Record a parent/change performance comparison as ``BENCH_<pr>.json``.

Runs the planner benchmark (``perfbench/run.py``) from two checkouts, a
parent and a change, alternating which side goes first, for ``--pairs``
pairs per workload.  Every run is a fresh process tree with the same seed
and length, so each pair times the same operations.  The output keeps every
run's end-to-end metrics (``BENCHMARK.json``'s ``end_to_end`` list), the
median and interquartile range of each side, and per pair the relative
change of each metric.  With ``--traced``, :data:`TRACED_PAIRS` alternating
traced pairs per workload add the per-layer table: each side's median of
every per-layer metric (``per_layer``) and its interquartile range
(``per_layer_iqr``).  One traced run per side is too noisy to carry a
layer claim: two runs of the same code have read ``cluster.memo_fill_ms``
a third apart, and even three pairs have moved a layer the change did not
touch by ~10%.  So a layer change counts only where the medians are
further apart than either side's IQR, which ``--check`` shows.

Besides the ``BENCHMARK.json`` workloads the tool times paths the
benchmark does not cover (:data:`TOOL_WORKLOADS`), each with its own
metrics.  Each spawns a CLI call (:data:`SPAWNS`), so its ``wall_s`` is
what a user waits for, interpreter start and imports included:
``cli-run`` is ``python -m repro run --steps 4 --out <tmp>``, and
``sweep`` is ``python -m repro sweep`` over one fixed grid of 96 cells and
all six strategies (576 simulations, about 1.2 s).  A side's ``wall_s`` in
a pair is the median of :data:`TOOL_SPAWNS` spawns in a row, and the
record keeps that count as ``spawns``.

Usage, from the root of the change checkout::

    git archive <parent-commit> | tar -x -C /tmp/parent
    python tools/bench_record.py --parent /tmp/parent --change . \\
        --parent-commit <parent-commit> --pr <n> --pairs 10 --seconds 10 \\
        --workload plan-cold --traced

``--check`` reads a recorded file instead of running anything.  It prints
the table a change cites (per workload and end-to-end metric: both medians,
the median pair delta, the pairs better, the bound), then, for a traced
record, each per-layer metric whose medians differ, with both IQRs and
whether the medians are apart by more than both.  It fails when a metric
regressed: its median pair delta is worse than its ``BENCHMARK.json`` bound
*and* most pairs are worse.  Each ``--claim WORKLOAD:METRIC`` also requires
the claimed gain: at least 10 pairs, nine in ten of them better, and a
median change larger than the parent's interquartile range::

    python tools/bench_record.py --check BENCH_<pr>.json --claim plan-cold:ops_per_s

A workload recorded with fewer pairs than a claim needs
(:data:`CLAIM_MIN_PAIRS`) is checked at twice every bound (e.g. 48% for
``ops_per_s``): so few pairs cannot tell a small slowdown from noise, and
they carry no claim anyway.  That is CI's recording of HEAD~1 against
HEAD (3 pairs of 2-second runs on a shared runner): it catches a gross
slowdown, not a small one.

Before the first run the tool compiles ``src`` and ``perfbench`` in both
trees (``python -m compileall -q``), so every spawn imports up-to-date
``.pyc`` files: with ``PYTHONDONTWRITEBYTECODE`` set, a tree without them
recompiles on every spawn, and one with stale ones from an earlier edit
recompiles the changed modules, and either pays for it in ``setup_s``.
Writing to an existing file adds or replaces the workloads given, and
refuses a file recorded for other source trees.

Each side is identified by its commit, when known (``--parent-commit``,
``--change-commit``, else ``git rev-parse HEAD`` in that checkout), and by
``src_sha256``, a digest of every file under its ``src/`` directory, which
also identifies a change measured before it was committed.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

SCHEMA = 1
SIDES = ("parent", "change")
REPO_ROOT = Path(__file__).resolve().parent.parent
#: The fewest pairs a claimed gain may rest on.
CLAIM_MIN_PAIRS = 10
#: Alternating traced pairs per workload behind ``--traced``'s per-layer medians.
TRACED_PAIRS = 3
#: Workloads the tool runs itself, each with its end-to-end metrics.
WALL_S = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
TOOL_WORKLOADS = {"cli-run": WALL_S, "sweep": WALL_S}
#: Spawns per side and pair of a tool workload, whose median is the side's
#: ``wall_s``.  Ten pairs of one sub-second spawn each read ``sweep`` 9%
#: slower on code the change did not touch: one spawn's wall time moves
#: with the host by that much.
TOOL_SPAWNS = 3
#: The ``sweep`` spawn: 96 cells (4 batch sizes, 3 GPU counts, 2 tasks,
#: datasets and servers), each with all six strategies.
SWEEP = (
    "-m repro sweep --steps 10 --batch-sizes 64,128,256,512 --gpu-counts 2,4,8"
    " --tasks nas,compression --datasets cifar10,imagenet --servers a6000,2080ti"
    " --strategies DP,LS,TR,TR+DPU,TR+IR,TR+DPU+AHD"
).split()
#: Per tool workload: the arguments of its CLI call (``--out`` and a path
#: follow), and whether the document the call wrote is whole.
SPAWNS = {
    "cli-run": (("-m", "repro", "run", "--steps", "4"), lambda out: "result" in out),
    "sweep": (SWEEP, lambda out: out["warm_cold"]["simulations"] == 576),
}


def src_digest(checkout: Path) -> str:
    """sha256 over the relative path and bytes of every file under ``src/``."""
    digest = hashlib.sha256()
    root = checkout / "src"
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def git(checkout: Path, *args: str) -> Optional[str]:
    """``git -C checkout args``'s stripped output, or None when git fails."""
    try:
        out = subprocess.run(
            ["git", "-C", str(checkout), *args],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def git_commit(checkout: Path) -> Optional[str]:
    """The checkout's HEAD, or None when its ``src/`` differs from HEAD.

    A change measured before it is committed sits on top of its parent's
    commit; naming that commit would give both sides the same one.
    """
    if git(checkout, "status", "--porcelain", "--", "src") != "":
        return None
    return git(checkout, "rev-parse", "HEAD") or None


def compile_tree(checkout: Path) -> None:
    """Byte-compile ``src`` and ``perfbench`` so that no spawn recompiles."""
    command = [sys.executable, "-m", "compileall", "-q", "src", "perfbench"]
    out = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(command)} failed:\n{out.stdout}{out.stderr}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run; its result document (last stdout line)."""
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    out = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(command)} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_spawn(checkout: Path, workload: str, out_dir: Path) -> dict:
    """One spawn of a tool workload in ``checkout``: its wall time, in the
    shape of a ``perfbench/run.py`` result."""
    args, complete = SPAWNS[workload]
    out = out_dir / f"{workload}.json"
    out.unlink(missing_ok=True)
    env = {key: value for key, value in os.environ.items() if key != "REPRO_STORE"}
    env["PYTHONPATH"] = str(checkout / "src")
    command = [sys.executable, *args, "--out", str(out)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(command)} failed:\n{done.stderr}")
    correct = complete(json.loads(out.read_text()))
    return {
        "correct": correct,
        "failed": 0,
        "attempted": 1,
        "metrics": {"wall_s": {"value": wall_s}},
    }


def run_spawns(checkout: Path, workload: str, out_dir: Path) -> dict:
    """:data:`TOOL_SPAWNS` spawns of a tool workload; ``wall_s`` is their median."""
    results = [run_spawn(checkout, workload, out_dir) for _ in range(TOOL_SPAWNS)]
    wall_s = statistics.median(result["metrics"]["wall_s"]["value"] for result in results)
    return {
        "correct": all(result["correct"] is True for result in results),
        "failed": sum(result["failed"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "metrics": {"wall_s": {"value": wall_s}},
    }


def metrics_for(workload: str, benchmark: dict) -> List[dict]:
    """The end-to-end metrics a workload reports."""
    return TOOL_WORKLOADS.get(workload, benchmark["end_to_end"])


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "iqr": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "iqr": q3 - q1}


def summarise(runs: Dict[str, List[dict]], metrics: List[dict]) -> Dict[str, dict]:
    """Per end-to-end metric: each side's values, median and IQR, per-pair deltas."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        entry: Dict[str, object] = {"unit": metric["unit"], "better": metric["better"]}
        for side in SIDES:
            values = [run["metrics"][name]["value"] for run in runs[side]]
            entry[side] = {"values": values, **quartiles(values)}
        deltas = [
            change / parent - 1.0
            for parent, change in zip(entry["parent"]["values"], entry["change"]["values"])
        ]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        entry["pair_deltas"] = deltas
        entry["median_delta"] = statistics.median(deltas)
        entry["pairs_better"] = sum(sign * delta > 0.0 for delta in deltas)
        summary[name] = entry
    return summary


def pair_order(pair: int) -> tuple:
    """The sides of pair ``pair`` in run order: parent first on even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def per_layer(traced: Dict[str, List[dict]], end_to_end) -> Dict[str, Dict[str, Dict]]:
    """Per statistic (``median``, ``iqr``) and side, every per-layer metric over its traced runs."""
    table: Dict[str, Dict[str, Dict]] = {"median": {}, "iqr": {}}
    for side, runs in traced.items():
        table["median"][side], table["iqr"][side] = {}, {}
        for name in runs[0]["metrics"]:
            if name not in end_to_end:
                values = [run["metrics"][name]["value"] for run in runs]
                table["median"][side][name] = statistics.median(values)
                table["iqr"][side][name] = quartiles(values)["iqr"]
    return table


def record_workload(args, benchmark: dict, workload: str, scratch: Path) -> dict:
    checkouts = {"parent": args.parent, "change": args.change}
    metrics = metrics_for(workload, benchmark)
    runs: Dict[str, List[dict]] = {side: [] for side in SIDES}
    order_log = []
    for pair in range(args.pairs):
        order = pair_order(pair)
        order_log.append(list(order))
        for side in order:
            started = time.perf_counter()
            if workload in TOOL_WORKLOADS:
                result = run_spawns(checkouts[side], workload, scratch)
            else:
                result = run_once(checkouts[side], workload, args.seed, args.seconds, 0)
            if result["correct"] is not True or result["failed"] != 0:
                raise SystemExit(f"{side} run of {workload} is not correct: {result}")
            runs[side].append(result)
            first = metrics[0]["name"]
            print(
                f"{workload} pair {pair + 1}/{args.pairs} {side}: "
                f"{first}={result['metrics'][first]['value']:.4g} "
                f"({time.perf_counter() - started:.1f} s)",
                file=sys.stderr,
            )
    record = {
        "pairs": args.pairs,
        "seed": args.seed,
        "seconds": args.seconds,
        "order": order_log,
        "attempted": {side: [run["attempted"] for run in runs[side]] for side in SIDES},
        "end_to_end": summarise(runs, metrics),
    }
    if workload in TOOL_WORKLOADS:
        record["spawns"] = TOOL_SPAWNS
    if args.traced and workload not in TOOL_WORKLOADS:
        traced: Dict[str, List[dict]] = {side: [] for side in SIDES}
        for pair in range(TRACED_PAIRS):
            for side in pair_order(pair):
                result = run_once(checkouts[side], workload, args.seed, args.seconds, 1)
                traced[side].append(result)
        layers = per_layer(traced, record["end_to_end"])
        record["traced_pairs"] = TRACED_PAIRS
        record["per_layer"] = layers["median"]
        record["per_layer_iqr"] = layers["iqr"]
    return record


def regressed(entry: dict, bound: float) -> bool:
    """Median pair delta worse than ``bound`` and most pairs worse."""
    sign = 1.0 if entry["better"] == "higher" else -1.0
    deltas = entry["pair_deltas"]
    worse = sum(sign * delta < 0.0 for delta in deltas)
    return sign * entry["median_delta"] < -bound and 2 * worse > len(deltas)


def claim_holds(entry: dict) -> bool:
    """At least 10 pairs, nine in ten better, and the medians apart by more than the parent IQR."""
    pairs = len(entry["pair_deltas"])
    sign = 1.0 if entry["better"] == "higher" else -1.0
    gain = sign * (entry["change"]["median"] - entry["parent"]["median"])
    return (
        pairs >= CLAIM_MIN_PAIRS
        and 10 * entry["pairs_better"] >= 9 * pairs
        and gain > entry["parent"]["iqr"]
    )


def check(document: dict, benchmark: dict, claims: List[str]) -> List[str]:
    """Print the comparison table of a record; return every failure found.

    Each metric's regression bound is its ``BENCHMARK.json`` (or tool
    workload) bound, doubled for a workload of fewer than
    :data:`CLAIM_MIN_PAIRS` pairs.
    """
    bounds = {
        metric["name"]: metric["bound"]
        for metrics in (benchmark["end_to_end"], *TOOL_WORKLOADS.values())
        for metric in metrics
    }
    failures = []
    for claim in claims:
        workload, _, metric = claim.partition(":")
        if metric not in bounds or workload not in document["workloads"]:
            failures.append(f"claim {claim}: the record has no such workload and metric")
    print("| workload | metric | parent | change | median delta | pairs better | bound | verdict |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload, record in sorted(document["workloads"].items()):
        scale = 1.0 if record["pairs"] >= CLAIM_MIN_PAIRS else 2.0
        for name, entry in record["end_to_end"].items():
            bound = bounds[name] * scale
            verdict = "ok"
            if regressed(entry, bound):
                verdict = "REGRESSED"
                failures.append(
                    f"{workload} {name}: median delta {entry['median_delta']:+.1%} is past "
                    f"the {bound:.0%} bound with most pairs worse"
                )
            if f"{workload}:{name}" in claims:
                if claim_holds(entry):
                    verdict += ", claim holds"
                else:
                    verdict += ", CLAIM FAILS"
                    failures.append(
                        f"{workload} {name}: claimed gain not shown ({entry['pairs_better']}"
                        f"/{len(entry['pair_deltas'])} pairs better, median "
                        f"{entry['parent']['median']:.4g} -> {entry['change']['median']:.4g}, "
                        f"parent IQR {entry['parent']['iqr']:.4g})"
                    )
            print(
                f"| {workload} | {name} | {entry['parent']['median']:.4g} "
                f"| {entry['change']['median']:.4g} | {entry['median_delta']:+.1%} "
                f"| {entry['pairs_better']}/{len(entry['pair_deltas'])} "
                f"| {bound:.0%} | {verdict} |"
            )
    for workload, record in sorted(document["workloads"].items()):
        print_layers(workload, record)
    return failures


def print_layers(workload: str, record: dict) -> None:
    """The per-layer metrics of a traced record whose medians differ, with both IQRs.

    A layer moved only where the medians are further apart than either
    side's IQR (``apart``).  Records made before the IQRs were kept show
    ``n/a`` for them.
    """
    medians = record.get("per_layer")
    if not medians:
        return
    iqrs = record.get("per_layer_iqr")
    print()
    print(f"{workload}: per-layer medians of {record.get('traced_pairs', 1)} traced pair(s)")
    print("| metric | parent | parent IQR | change | change IQR | delta | apart |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name in sorted(medians["parent"]):
        parent, change = medians["parent"][name], medians["change"].get(name)
        if change is None or change == parent:
            continue
        delta = f"{change / parent - 1.0:+.1%}" if parent else "n/a"
        if iqrs is None:
            spread, apart = ("n/a", "n/a"), "n/a"
        else:
            spread = (iqrs["parent"][name], iqrs["change"][name])
            apart = "yes" if abs(change - parent) > max(spread) else "no"
            spread = tuple(f"{value:.4g}" for value in spread)
        print(
            f"| {name} | {parent:.4g} | {spread[0]} | {change:.4g} | {spread[1]} "
            f"| {delta} | {apart} |"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", type=Path, metavar="BENCH_JSON", help="check a record")
    parser.add_argument(
        "--claim",
        action="append",
        default=[],
        metavar="WORKLOAD:METRIC",
        help="with --check: a gain the record must show (repeatable)",
    )
    parser.add_argument("--parent", type=Path, help="parent checkout")
    parser.add_argument("--change", type=Path, help="change checkout")
    parser.add_argument("--parent-commit", help="default: git rev-parse HEAD in --parent")
    parser.add_argument("--change-commit", help="default: git rev-parse HEAD in --change")
    parser.add_argument("--pr", type=int, help="names the output file")
    parser.add_argument(
        "--workload",
        action="append",
        help=f"repeatable; default: BENCHMARK.json's and {', '.join(TOOL_WORKLOADS)}",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument(
        "--traced",
        action="store_true",
        help=f"add per-layer medians and IQRs of {TRACED_PAIRS} alternating traced pairs",
    )
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json in --change")
    args = parser.parse_args(argv)
    if args.check is not None:
        benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        failures = check(json.loads(args.check.read_text()), benchmark, args.claim)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    missing = [flag for flag in ("parent", "change", "pr") if getattr(args, flag) is None]
    if missing:
        parser.error(f"recording needs --{', --'.join(missing)} (or use --check)")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]] + list(TOOL_WORKLOADS)
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {names}")

    sides = {
        "parent": {
            "commit": args.parent_commit or git_commit(args.parent),
            "src_sha256": src_digest(args.parent),
        },
        "change": {
            "commit": args.change_commit or git_commit(args.change),
            "src_sha256": src_digest(args.change),
        },
    }
    out = args.out or args.change / f"BENCH_{args.pr}.json"
    if out.exists():
        document = json.loads(out.read_text())
        recorded = {side: document[side]["src_sha256"] for side in SIDES}
        if recorded != {side: sides[side]["src_sha256"] for side in SIDES}:
            raise SystemExit(f"{out} was recorded for other source trees: {recorded}")
    else:
        document = {"schema": SCHEMA, "pr": args.pr, **sides, "workloads": {}}
    document["host"] = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    for checkout in (args.parent, args.change):
        compile_tree(checkout)
    with tempfile.TemporaryDirectory(prefix="bench_record-") as scratch:
        for workload in workloads:
            document["workloads"][workload] = record_workload(
                args, benchmark, workload, Path(scratch)
            )
            document["recorded"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            )
            out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
            for name, entry in document["workloads"][workload]["end_to_end"].items():
                print(
                    f"{workload:>15} {name:<12} parent {entry['parent']['median']:.4g} "
                    f"change {entry['change']['median']:.4g} "
                    f"median delta {entry['median_delta']:+.1%} "
                    f"({entry['pairs_better']}/{args.pairs} pairs better)"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
