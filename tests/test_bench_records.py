"""Schema of the committed performance trajectory (``BENCH_*.json``).

Each file is written by ``tools/bench_record.py``: alternating parent/change
runs of the planner benchmark (and of the tool's own workloads,
``cli-run`` and ``sweep``), with every run's end-to-end metrics and their
medians and interquartile ranges.  The checks below hold every committed
file, and the tool's own summary, to that shape.
"""

from __future__ import annotations

import importlib.util
import json
import re
import statistics
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
SHA1 = re.compile(r"[0-9a-f]{40}")
SHA256 = re.compile(r"[0-9a-f]{64}")
RECORDS = sorted(REPO_ROOT.glob("BENCH_*.json"))


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_record", REPO_ROOT / "tools" / "bench_record.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Per workload, its end-to-end metrics by name.
TOOL_WORKLOADS = load_tool().TOOL_WORKLOADS
METRICS = {workload["name"]: END_TO_END for workload in BENCHMARK["workloads"]}
METRICS.update(
    {
        name: {metric["name"]: metric for metric in metrics}
        for name, metrics in TOOL_WORKLOADS.items()
    }
)


def check_side(side: dict, values_len: int) -> None:
    assert isinstance(side["values"], list) and len(side["values"]) == values_len
    assert all(isinstance(value, (int, float)) for value in side["values"])
    assert side["median"] == pytest.approx(statistics.median(side["values"]))
    assert side["iqr"] >= 0.0


def check_metric(metric: dict, entry: dict, pairs: int) -> None:
    assert (entry["unit"], entry["better"]) == (metric["unit"], metric["better"])
    check_side(entry["parent"], pairs)
    check_side(entry["change"], pairs)
    deltas = [
        change / parent - 1.0
        for parent, change in zip(entry["parent"]["values"], entry["change"]["values"])
    ]
    assert entry["pair_deltas"] == pytest.approx(deltas)
    assert entry["median_delta"] == pytest.approx(statistics.median(deltas))
    sign = 1.0 if metric["better"] == "higher" else -1.0
    assert entry["pairs_better"] == sum(sign * delta > 0.0 for delta in deltas)


def check_workload(record: dict, workload: str = "plan-cold") -> None:
    pairs = record["pairs"]
    assert isinstance(pairs, int) and pairs >= 1
    assert isinstance(record["seed"], int) and record["seconds"] > 0
    assert len(record["order"]) == pairs
    assert all(sorted(order) == ["change", "parent"] for order in record["order"])
    metrics = METRICS[workload]
    assert set(record["end_to_end"]) == set(metrics)
    for name, entry in record["end_to_end"].items():
        check_metric(metrics[name], entry, pairs)
    for side, layers in record.get("per_layer", {}).items():
        assert side in ("parent", "change")
        assert all(isinstance(value, (int, float)) for value in layers.values())
    # Records before traced pairs carry one traced run per side and no count;
    # records before per-layer IQRs carry medians only.
    if "traced_pairs" in record:
        assert record["traced_pairs"] >= 3 and "per_layer" in record
    # Records before the spawn count time one spawn per side and pair.
    if "spawns" in record:
        assert workload in TOOL_WORKLOADS
        assert isinstance(record["spawns"], int) and record["spawns"] >= 1
        spawned = [record["spawns"]] * pairs
        assert all(attempted == spawned for attempted in record["attempted"].values())
    if "per_layer_iqr" in record:
        assert "traced_pairs" in record
        iqrs, medians = record["per_layer_iqr"], record["per_layer"]
        assert set(iqrs) == set(medians) == {"parent", "change"}
        for side, layers in iqrs.items():
            assert set(layers) == set(medians[side])
            assert all(isinstance(value, (int, float)) and value >= 0 for value in layers.values())


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_committed_record_matches_the_schema(path):
    document = json.loads(path.read_text())
    assert document["schema"] == 1
    assert path.name == f"BENCH_{document['pr']}.json"
    assert SHA1.fullmatch(document["parent"]["commit"])
    assert document["change"]["commit"] is None or SHA1.fullmatch(document["change"]["commit"])
    for side in ("parent", "change"):
        assert SHA256.fullmatch(document[side]["src_sha256"])
    assert document["parent"]["src_sha256"] != document["change"]["src_sha256"]
    assert document["host"]["cpus"] >= 1
    assert document["workloads"] and set(document["workloads"]) <= set(METRICS)
    for workload, record in document["workloads"].items():
        check_workload(record, workload)


def test_the_trajectory_has_a_record():
    assert RECORDS


def test_tool_summary_matches_the_schema():
    tool = load_tool()
    runs = {
        side: [
            {"metrics": {name: {"value": base + pair} for name in END_TO_END}}
            for pair in range(3)
        ]
        for side, base in (("parent", 10.0), ("change", 12.0))
    }
    summary = tool.summarise(runs, BENCHMARK["end_to_end"])
    check_workload(
        {
            "pairs": 3,
            "seed": 0,
            "seconds": 2.0,
            "order": [["parent", "change"], ["change", "parent"], ["parent", "change"]],
            "end_to_end": summary,
        }
    )
    assert summary["ops_per_s"]["pairs_better"] == 3
    assert summary["setup_s"]["pairs_better"] == 0
    assert summary["ops_per_s"]["parent"]["iqr"] == 1.0


def test_compile_tree_writes_current_bytecode(tmp_path):
    tool = load_tool()
    sources = [tmp_path / "src" / "pkg" / "mod.py", tmp_path / "perfbench" / "run.py"]
    for source in sources:
        source.parent.mkdir(parents=True)
        source.write_text("VALUE = 1\n")
    tool.compile_tree(tmp_path)
    for source in sources:
        assert Path(importlib.util.cache_from_source(str(source))).is_file()
    (tmp_path / "src" / "broken.py").write_text("def broken(:\n")
    with pytest.raises(SystemExit, match="compileall"):
        tool.compile_tree(tmp_path)


def test_both_trees_are_compiled_before_the_first_run(tmp_path, monkeypatch):
    tool = load_tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src").mkdir(parents=True)
        (checkout / "src" / "mod.py").write_text(f"SIDE = {checkout.name!r}\n")
    (change / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    calls = []
    monkeypatch.setattr(tool, "compile_tree", lambda checkout: calls.append(("compile", checkout)))

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append(("run", checkout))
        return {
            "correct": True,
            "failed": 0,
            "attempted": 1,
            "metrics": {name: {"value": 1.0} for name in END_TO_END},
        }

    monkeypatch.setattr(tool, "run_once", run_once)
    out = tmp_path / "BENCH_7.json"
    argv = ["--parent", str(parent), "--change", str(change), "--parent-commit", "0" * 40]
    argv += ["--pr", "7", "--pairs", "2", "--workload", "plan-cold", "--out", str(out)]
    assert tool.main(argv) == 0
    assert calls[:2] == [("compile", parent), ("compile", change)]
    assert [call for call, _ in calls[2:]] == ["run"] * 4
    check_workload(json.loads(out.read_text())["workloads"]["plan-cold"])


def test_traced_pairs_alternate_and_record_per_layer_medians(tmp_path, monkeypatch):
    tool = load_tool()
    assert tool.TRACED_PAIRS >= 3
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src").mkdir(parents=True)
        (checkout / "src" / "mod.py").write_text(f"SIDE = {checkout.name!r}\n")
    (change / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    monkeypatch.setattr(tool, "compile_tree", lambda checkout: None)
    traced = []

    def run_once(checkout, workload, seed, seconds, trace):
        metrics = {name: {"value": 1.0} for name in END_TO_END}
        if trace:
            traced.append(checkout.name)
            # The first traced run of each side is an outlier a median drops.
            runs = traced.count(checkout.name)
            base = 100.0 if checkout == parent else 80.0
            metrics["cluster.run_self_ms"] = {"value": base * (3.0 if runs == 1 else 1.0)}
            metrics["cluster.memo_fills"] = {"value": 384}
        return {"correct": True, "failed": 0, "attempted": 1, "metrics": metrics}

    monkeypatch.setattr(tool, "run_once", run_once)
    out = tmp_path / "BENCH_7.json"
    argv = ["--parent", str(parent), "--change", str(change), "--parent-commit", "0" * 40]
    argv += ["--pr", "7", "--pairs", "2", "--workload", "fleet-reliable", "--traced"]
    assert tool.main(argv + ["--out", str(out)]) == 0
    assert traced == [side for pair in range(tool.TRACED_PAIRS) for side in tool.pair_order(pair)]
    record = json.loads(out.read_text())["workloads"]["fleet-reliable"]
    check_workload(record, "fleet-reliable")
    assert record["traced_pairs"] == tool.TRACED_PAIRS
    assert record["per_layer"] == {
        "parent": {"cluster.run_self_ms": 100.0, "cluster.memo_fills": 384},
        "change": {"cluster.run_self_ms": 80.0, "cluster.memo_fills": 384},
    }
    # Inclusive quartiles of (300, 100, 100) and (240, 80, 80).
    assert record["per_layer_iqr"] == {
        "parent": {"cluster.run_self_ms": 100.0, "cluster.memo_fills": 0.0},
        "change": {"cluster.run_self_ms": 80.0, "cluster.memo_fills": 0.0},
    }


def test_check_prints_per_layer_medians_with_both_iqrs(tmp_path, capsys):
    tool, path = scratch_record(tmp_path, {"ops_per_s": 1.2})
    document = json.loads(path.read_text())
    record = document["workloads"]["plan-cold"]
    record["traced_pairs"] = 3
    record["per_layer"] = {
        "parent": {"sim.run_ms": 200.0, "parallel.execute_self_ms": 400.0, "sim.run_calls": 2112},
        "change": {"sim.run_ms": 180.0, "parallel.execute_self_ms": 300.0, "sim.run_calls": 2112},
    }
    record["per_layer_iqr"] = {
        "parent": {"sim.run_ms": 25.0, "parallel.execute_self_ms": 20.0, "sim.run_calls": 0},
        "change": {"sim.run_ms": 10.0, "parallel.execute_self_ms": 30.0, "sim.run_calls": 0},
    }
    check_workload(record)
    path.write_text(json.dumps(document))
    assert tool.main(["--check", str(path)]) == 0
    out = capsys.readouterr().out
    # A 20 ms drop inside the parent's 25 ms IQR is not a layer change; a
    # 100 ms one past both IQRs is; equal medians are left out.
    assert "| sim.run_ms | 200 | 25 | 180 | 10 | -10.0% | no |" in out
    assert "| parallel.execute_self_ms | 400 | 20 | 300 | 30 | -25.0% | yes |" in out
    assert "sim.run_calls" not in out
    del record["per_layer_iqr"]
    check_workload(record)
    path.write_text(json.dumps(document))
    assert tool.main(["--check", str(path)]) == 0
    assert "| sim.run_ms | 200 | n/a | 180 | n/a | -10.0% | n/a |" in capsys.readouterr().out


@pytest.mark.parametrize("workload", ["cli-run", "sweep"])
def test_a_tool_workload_spawns_one_cli_call(tmp_path, workload):
    tool = load_tool()
    result = tool.run_spawn(REPO_ROOT, workload, tmp_path)
    assert (result["correct"], result["failed"], result["attempted"]) == (True, 0, 1)
    assert set(result["metrics"]) == set(METRICS[workload])
    assert result["metrics"]["wall_s"]["value"] > 0.0
    out = json.loads((tmp_path / f"{workload}.json").read_text())
    _, complete = tool.SPAWNS[workload]
    assert complete(out)
    if workload == "sweep":
        assert len(out["cells"]) == 96
        assert {len(cell["results"]) for cell in out["cells"]} == {6}
        out["warm_cold"]["simulations"] -= 1  # a cell that did not run
        assert not complete(out)


def test_cli_run_is_recorded_in_alternating_pairs(tmp_path, monkeypatch):
    tool = load_tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src").mkdir(parents=True)
        (checkout / "src" / "mod.py").write_text(f"SIDE = {checkout.name!r}\n")
    (change / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    monkeypatch.setattr(tool, "compile_tree", lambda checkout: None)
    monkeypatch.setattr(tool, "run_once", lambda *args: pytest.fail("perfbench was run"))
    sides = []
    # Each side's spawns in one pair: one slow outlier, which the median drops.
    walls = {parent: [0.3, 0.9, 0.31], change: [0.2, 0.21, 0.8]}

    def run_spawn(checkout, workload, out_dir):
        sides.append(checkout.name)
        wall_s = walls[checkout][(len(sides) - 1) % tool.TOOL_SPAWNS]
        return {
            "correct": True,
            "failed": 0,
            "attempted": 1,
            "metrics": {"wall_s": {"value": wall_s}},
        }

    monkeypatch.setattr(tool, "run_spawn", run_spawn)
    out = tmp_path / "BENCH_7.json"
    argv = ["--parent", str(parent), "--change", str(change), "--parent-commit", "0" * 40]
    argv += ["--pr", "7", "--pairs", "2", "--workload", "cli-run", "--traced", "--out", str(out)]
    assert tool.main(argv) == 0
    assert tool.TOOL_SPAWNS == 3
    spawns = [[name] * tool.TOOL_SPAWNS for name in ("parent", "change", "change", "parent")]
    assert sides == [name for run in spawns for name in run]
    record = json.loads(out.read_text())["workloads"]["cli-run"]
    check_workload(record, "cli-run")
    assert record["spawns"] == 3
    assert record["attempted"] == {"parent": [3, 3], "change": [3, 3]}
    assert "per_layer" not in record
    wall = record["end_to_end"]["wall_s"]
    assert wall["parent"]["values"] == [0.31, 0.31]
    assert wall["change"]["values"] == [0.21, 0.21]
    assert wall["pairs_better"] == 2


def scratch_record(tmp_path, change_factor, pairs=10, noise=0.01):
    """A record whose change side scales each parent value by ``change_factor``.

    ``change_factor`` maps a metric name to its factor (default 1.0); parent
    values wobble by ``noise`` from pair to pair.
    """
    tool = load_tool()
    runs = {"parent": [], "change": []}
    for pair in range(pairs):
        wobble = 1.0 + noise * ((pair % 3) - 1)
        base = {"setup_s": 0.4 * wobble, "ops_per_s": 700.0 * wobble, "peak_rss_mb": 47.0}
        runs["parent"].append({"metrics": {k: {"value": v} for k, v in base.items()}})
        changed = {k: v * change_factor.get(k, 1.0) for k, v in base.items()}
        runs["change"].append({"metrics": {k: {"value": v} for k, v in changed.items()}})
    record = {
        "pairs": pairs,
        "seed": 0,
        "seconds": 10.0,
        "order": [["parent", "change"]] * pairs,
        "end_to_end": tool.summarise(runs, BENCHMARK["end_to_end"]),
    }
    check_workload(record)
    path = tmp_path / "BENCH_99.json"
    path.write_text(json.dumps({"schema": 1, "pr": 99, "workloads": {"plan-cold": record}}))
    return tool, path


def test_check_passes_a_gain_and_prints_the_table(tmp_path, capsys):
    tool, path = scratch_record(tmp_path, {"ops_per_s": 1.2})
    assert tool.main(["--check", str(path), "--claim", "plan-cold:ops_per_s"]) == 0
    table = capsys.readouterr().out
    assert "| workload | metric | parent | change | median delta |" in table
    assert "| plan-cold | ops_per_s | 700 | 840 | +20.0% | 10/10 | 24% | ok, claim holds |" in table


def test_check_catches_a_scratch_ten_percent_regression(tmp_path, capsys):
    # Within the 24% noise bound a 10% slowdown is not a regression by
    # itself, but it can never pass as the claimed gain.
    tool, path = scratch_record(tmp_path, {"ops_per_s": 0.9})
    assert tool.main(["--check", str(path)]) == 0
    assert tool.main(["--check", str(path), "--claim", "plan-cold:ops_per_s"]) == 1
    assert "CLAIM FAILS" in capsys.readouterr().out
    # Past its 10% bound, a memory regression fails with no claim at all.
    tool, path = scratch_record(tmp_path, {"peak_rss_mb": 1.12})
    assert tool.main(["--check", str(path)]) == 1
    assert "| plan-cold | peak_rss_mb | 47 | 52.64 | +12.0% | 0/10 | 10% | REGRESSED |" in (
        capsys.readouterr().out
    )


def test_a_record_of_few_pairs_is_checked_at_twice_the_bounds(tmp_path, capsys):
    # Fewer pairs than a claim needs (CI records 3) cannot tell a small
    # slowdown from noise: a 30% slowdown fails the 24% bound at 10 pairs
    # but passes the doubled 48% one at 3; a 60% one fails both.
    tool, path = scratch_record(tmp_path, {"ops_per_s": 0.7})
    assert tool.main(["--check", str(path)]) == 1
    capsys.readouterr()
    tool, path = scratch_record(tmp_path, {"ops_per_s": 0.7}, pairs=3)
    assert tool.main(["--check", str(path)]) == 0
    assert "| -30.0% | 0/3 | 48% | ok |" in capsys.readouterr().out
    tool, path = scratch_record(tmp_path, {"ops_per_s": 0.4}, pairs=3)
    assert tool.main(["--check", str(path)]) == 1
    assert "| -60.0% | 0/3 | 48% | REGRESSED |" in capsys.readouterr().out


@pytest.mark.parametrize("workload", ["cli-run", "sweep"])
def test_check_bounds_and_claims_a_tool_workload(tmp_path, capsys, workload):
    tool = load_tool()
    for factor, claim_ok, verdict in ((0.8, True, "ok, claim holds"), (1.3, False, "REGRESSED")):
        runs = {"parent": [], "change": []}
        for pair in range(10):
            wall_s = 0.3 * (1.0 + 0.01 * ((pair % 3) - 1))
            runs["parent"].append({"metrics": {"wall_s": {"value": wall_s}}})
            runs["change"].append({"metrics": {"wall_s": {"value": wall_s * factor}}})
        record = {
            "pairs": 10,
            "seed": 0,
            "seconds": 10.0,
            "order": [["parent", "change"]] * 10,
            "end_to_end": tool.summarise(runs, tool.TOOL_WORKLOADS[workload]),
        }
        check_workload(record, workload)
        path = tmp_path / "BENCH_98.json"
        path.write_text(json.dumps({"schema": 1, "pr": 98, "workloads": {workload: record}}))
        status = tool.main(["--check", str(path), "--claim", f"{workload}:wall_s"])
        assert status == (0 if claim_ok else 1)
        assert f"| 25% | {verdict}" in capsys.readouterr().out


def test_check_needs_most_pairs_worse_and_the_median_past_the_bound(tmp_path):
    tool = load_tool()
    entry = {"better": "higher", "median_delta": -0.3, "pair_deltas": [-0.3] * 5 + [0.1] * 5}
    assert not tool.regressed(entry, 0.24)  # half the pairs are not most
    entry["pair_deltas"] = [-0.3] * 6 + [0.1] * 4
    assert tool.regressed(entry, 0.24)
    assert not tool.regressed({**entry, "median_delta": -0.2}, 0.24)
    lower = {"better": "lower", "median_delta": 0.3, "pair_deltas": [0.3] * 10}
    assert tool.regressed(lower, 0.25)


def test_a_claim_needs_ten_pairs_and_a_gain_past_the_parent_iqr(tmp_path):
    tool, path = scratch_record(tmp_path, {"ops_per_s": 1.2}, pairs=6)
    assert tool.main(["--check", str(path), "--claim", "plan-cold:ops_per_s"]) == 1
    tool, path = scratch_record(tmp_path, {"ops_per_s": 1.01}, noise=0.05)
    assert tool.main(["--check", str(path), "--claim", "plan-cold:ops_per_s"]) == 1
    assert tool.main(["--check", str(path), "--claim", "fleet-slo:ops_per_s"]) == 1


def test_recording_still_needs_both_checkouts(capsys):
    with pytest.raises(SystemExit):
        load_tool().main(["--pr", "7"])
    assert "--parent, --change" in capsys.readouterr().err


def test_an_uncommitted_change_records_no_commit(tmp_path):
    tool = load_tool()
    assert tool.git_commit(tmp_path) is None  # not a git checkout
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("VALUE = 1\n")
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "."], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "parent"], check=True)
    head = tool.git_commit(tmp_path)
    assert SHA1.fullmatch(head)
    (tmp_path / "src" / "mod.py").write_text("VALUE = 2\n")
    assert tool.git_commit(tmp_path) is None
    (tmp_path / "notes.md").write_text("outside src\n")
    subprocess.run(git + ["checkout", "-q", "--", "src"], check=True)
    assert tool.git_commit(tmp_path) == head
