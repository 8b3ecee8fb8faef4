"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.cluster.workload import poisson_workload


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured


class TestRun:
    def test_run_prints_result_json(self, capsys):
        code, captured = run_cli(
            capsys,
            "run",
            "--strategy",
            "TR",
            "--num-gpus",
            "2",
            "--batch-size",
            "128",
            "--steps",
            "4",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["config"]["strategy"] == "TR"
        assert payload["result"]["epoch_time_s"] > 0

    def test_run_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, captured = run_cli(
            capsys, "run", "--strategy", "DP", "--steps", "4", "--out", str(target)
        )
        assert code == 0
        assert str(target) in captured.out
        payload = json.loads(target.read_text())
        assert payload["result"]["strategy"] == "DP"

    def test_unknown_strategy_is_reported_not_raised(self, capsys):
        code, captured = run_cli(capsys, "run", "--strategy", "FSDP")
        assert code == 2
        assert "error:" in captured.err
        assert "FSDP" in captured.err


class TestSweep:
    def test_sweep_grid_json(self, capsys):
        code, captured = run_cli(
            capsys,
            "sweep",
            "--batch-sizes",
            "128,256",
            "--strategies",
            "DP,TR",
            "--steps",
            "4",
            "--table",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["strategies"] == ["DP", "TR"]
        assert len(payload["cells"]) == 2
        assert "Speedup over DP" in captured.err

    def test_sweep_table_without_default_baseline_falls_back(self, capsys):
        code, captured = run_cli(
            capsys,
            "sweep",
            "--batch-sizes",
            "128,256",
            "--strategies",
            "TR,TR+DPU",
            "--steps",
            "4",
            "--table",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["strategies"] == ["TR", "TR+DPU"]
        assert "Speedup over TR" in captured.err


class TestCluster:
    def test_cluster_all_policies(self, capsys, tmp_path):
        target = tmp_path / "cluster.json"
        code, captured = run_cli(
            capsys,
            "cluster",
            "--num-jobs",
            "12",
            "--rate",
            "0.5",
            "--seed",
            "3",
            "--table",
            "--out",
            str(target),
        )
        assert code == 0
        assert "policy" in captured.err  # comparison table on stderr
        payload = json.loads(target.read_text())
        assert set(payload["reports"]) == {
            "fifo",
            "best-fit",
            "sjf",
            "priority",
            "fair-share",
            "deadline-aware",
        }
        for report in payload["reports"].values():
            assert report["num_jobs"] == 12
        assert payload["session_stats"]["profile_builds"] > 0

    def test_cluster_shorthand_and_single_policy(self, capsys):
        code, captured = run_cli(
            capsys,
            "cluster",
            "--nodes",
            "a6000:4,2080ti:2",
            "--policy",
            "best-fit",
            "--num-jobs",
            "6",
            "--arrival",
            "bursty",
            "--burst-size",
            "3",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert list(payload["reports"]) == ["best-fit"]
        assert payload["cluster"]["nodes"][1]["server"] == "2080ti"

    def test_cluster_workload_replay_roundtrip(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        poisson_workload(8, rate=0.5, seed=9).save(trace)
        code, captured = run_cli(
            capsys, "cluster", "--workload", str(trace), "--policy", "fifo"
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["reports"]["fifo"]["num_jobs"] == 8

    def test_save_workload(self, capsys, tmp_path):
        target = tmp_path / "generated.json"
        code, captured = run_cli(
            capsys,
            "cluster",
            "--num-jobs",
            "5",
            "--policy",
            "fifo",
            "--save-workload",
            str(target),
        )
        assert code == 0
        saved = json.loads(target.read_text())
        assert len(saved["jobs"]) == 5

    def test_cluster_error_is_reported_not_raised(self, capsys):
        # A 1-GPU fleet cannot host the default mix's 4-GPU gangs.
        code, captured = run_cli(
            capsys, "cluster", "--nodes", "a6000:1", "--num-jobs", "20"
        )
        assert code == 2
        assert "error:" in captured.err


class TestTune:
    def test_tune_round_trip(self, capsys, tmp_path):
        target = tmp_path / "tune.json"
        code, captured = run_cli(
            capsys,
            "tune",
            "--objective",
            "epoch_time",
            "--strategies",
            "DP,TR,TR+DPU+AHD",
            "--batch-sizes",
            "128,256",
            "--gpu-counts",
            "2",
            "--servers",
            "a6000",
            "--budget",
            "6",
            "--steps",
            "4",
            "--table",
            "--out",
            str(target),
        )
        assert code == 0
        assert "Pareto frontier" in captured.err
        payload = json.loads(target.read_text())
        assert payload["objective"]["name"] == "epoch_time"
        assert payload["driver"] == "successive-halving"
        assert payload["space"]["size"] == 6
        assert payload["frontier"]
        # The winner is the fastest evaluated candidate...
        times = [m["epoch_time_s"] for m in payload["measurements"]]
        assert payload["best"]["epoch_time_s"] == min(times)
        # ...and the frontier is loadable by the analysis helpers.
        from repro.analysis.pareto import assert_frontier_consistent, load_tune_result

        assert_frontier_consistent(load_tune_result(target))

    def test_tune_throughput_objective_via_policies(self, capsys):
        code, captured = run_cli(
            capsys,
            "tune",
            "--objective",
            "jobs_per_hour",
            "--strategies",
            "TR+DPU+AHD",
            "--batch-sizes",
            "128",
            "--gpu-counts",
            "2",
            "--policies",
            "fifo,best-fit",
            "--nodes",
            "a6000:4,2080ti:4",
            "--driver",
            "exhaustive",
            "--budget",
            "4",
            "--steps",
            "4",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["best"]["jobs_per_hour"] > 0

    def test_tune_missing_policies_is_reported_not_raised(self, capsys):
        code, captured = run_cli(
            capsys, "tune", "--objective", "jobs_per_hour", "--budget", "4"
        )
        assert code == 2
        assert "policies" in captured.err

    def test_tune_deadline_requires_cost_objective(self, capsys):
        code, captured = run_cli(
            capsys,
            "tune",
            "--objective",
            "epoch_time",
            "--deadline",
            "12",
            "--budget",
            "2",
        )
        assert code == 2
        assert "'deadline' only applies" in captured.err

    def test_tune_deadline_flag(self, capsys):
        code, captured = run_cli(
            capsys,
            "tune",
            "--objective",
            "cost",
            "--deadline",
            "1e9",
            "--strategies",
            "DP,TR",
            "--batch-sizes",
            "128",
            "--gpu-counts",
            "2",
            "--servers",
            "2080ti",
            "--budget",
            "2",
            "--steps",
            "4",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["objective"]["name"] == "cost"
        assert payload["best"]["cost_usd_per_epoch"] > 0


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        from repro.version import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_policy_reported(self, capsys):
        code, captured = run_cli(
            capsys, "cluster", "--policy", "round-robin", "--num-jobs", "4"
        )
        assert code == 2
        assert "unknown policy" in captured.err


class TestStoreFlag:
    def test_sweep_twice_hydrates_from_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        argv = (
            "sweep",
            "--batch-sizes",
            "128,256",
            "--strategies",
            "DP,TR",
            "--steps",
            "4",
            "--store",
            store,
        )
        code, captured = run_cli(capsys, *argv)
        assert code == 0
        cold = json.loads(captured.out)
        assert cold["warm_cold"]["simulations"] == 4
        assert cold["warm_cold"]["warm_fraction"] == 0.0

        code, captured = run_cli(capsys, *argv)
        assert code == 0
        warm = json.loads(captured.out)
        assert warm["warm_cold"]["simulations"] == 0
        assert warm["warm_cold"]["warm_fraction"] == 1.0
        assert warm["cells"] == cold["cells"]

    def test_run_payload_embeds_store_summary(self, capsys, tmp_path):
        code, captured = run_cli(
            capsys,
            "run",
            "--strategy",
            "DP",
            "--steps",
            "4",
            "--store",
            str(tmp_path / "store"),
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert set(payload["store"]) == {"root", "disk_bytes"}
        assert payload["store"]["disk_bytes"] > 0

    def test_repro_store_env_is_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
        code, captured = run_cli(capsys, "run", "--strategy", "DP", "--steps", "4")
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["warm_cold"]["has_store"] is True
        assert (tmp_path / "envstore" / "meta.json").exists()

    def test_backend_flag_accepted(self, capsys, tmp_path):
        code, captured = run_cli(
            capsys,
            "sweep",
            "--batch-sizes",
            "128,256",
            "--strategies",
            "DP",
            "--steps",
            "4",
            "--backend",
            "thread",
        )
        assert code == 0
        assert len(json.loads(captured.out)["cells"]) == 2


class TestPregen:
    def test_pregen_smoke_grid_and_resume(self, capsys, tmp_path):
        store = str(tmp_path / "artifact")
        code, captured = run_cli(
            capsys, "pregen", "--store", store, "--grid", "smoke",
            "--max-cells", "3",
        )
        assert code == 0
        partial = json.loads(captured.out)
        assert partial["simulated"] == 3 and not partial["complete"]

        code, captured = run_cli(
            capsys, "pregen", "--store", store, "--grid", "smoke"
        )
        assert code == 0
        resumed = json.loads(captured.out)
        assert resumed["complete"]
        assert resumed["skipped"] == 3
        assert resumed["simulated"] == resumed["total_cells"] - 3
        assert resumed["grid_hash"] == partial["grid_hash"]
        assert (tmp_path / "artifact" / "manifest.json").exists()
        assert (tmp_path / "artifact" / "store.sqlite").exists()

    def test_pregen_without_store_is_reported(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        code, captured = run_cli(capsys, "pregen", "--grid", "smoke")
        assert code == 2
        assert "REPRO_STORE" in captured.err

    def test_pregen_negative_max_cells_is_reported(self, capsys, tmp_path):
        code, captured = run_cli(
            capsys, "pregen", "--store", str(tmp_path / "s"), "--grid", "smoke",
            "--max-cells", "-1",
        )
        assert code == 2
        assert "max_cells" in captured.err


class TestCache:
    def _populate(self, capsys, store):
        code, _ = run_cli(
            capsys, "run", "--strategy", "DP", "--steps", "4", "--store", store
        )
        assert code == 0

    def test_cache_stats(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        self._populate(capsys, store)
        code, captured = run_cli(capsys, "cache", "stats", "--store", store, "--table")
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["stats"]["records"] == 1
        assert "Experiment store" in captured.err

    def test_cache_gc(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        self._populate(capsys, store)
        code, captured = run_cli(
            capsys, "cache", "gc", "--store", store, "--max-records", "0"
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["evicted"] == 1
        assert payload["stats"]["records"] == 0

    @pytest.mark.parametrize("days", ["-1", "nan"])
    def test_cache_gc_rejects_a_bad_age(self, capsys, tmp_path, days):
        store = str(tmp_path / "store")
        self._populate(capsys, store)
        code, captured = run_cli(
            capsys, "cache", "gc", "--store", store, "--max-age-days", days
        )
        assert code == 2
        assert "max_age_seconds" in captured.err
        assert "Traceback" not in captured.err
        code, captured = run_cli(capsys, "cache", "stats", "--store", store)
        assert code == 0
        assert json.loads(captured.out)["stats"]["records"] == 1

    def test_cache_gc_needs_a_bound(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        self._populate(capsys, store)
        code, captured = run_cli(capsys, "cache", "gc", "--store", store)
        assert code == 2
        assert "eviction bound" in captured.err

    def test_cache_import_of_a_native_store_is_a_no_op(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        self._populate(capsys, store)
        code, captured = run_cli(capsys, "cache", "import", "--store", store)
        assert code == 0
        assert json.loads(captured.out) == {"imported": 0, "skipped": 0}
        code, captured = run_cli(capsys, "cache", "stats", "--store", store)
        assert json.loads(captured.out)["stats"]["records"] == 1

    def test_cache_import_refuses_a_missing_store(self, capsys, tmp_path):
        code, captured = run_cli(
            capsys, "cache", "import", "--store", str(tmp_path / "nope")
        )
        assert code == 2
        assert "no experiment store" in captured.err

    def test_cache_export(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        self._populate(capsys, store)
        code, captured = run_cli(capsys, "cache", "export", "--store", store)
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["num_records"] == 1
        assert payload["records"][0]["kind"] == "run"

    def test_cache_without_store_is_reported(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        code, captured = run_cli(capsys, "cache", "stats")
        assert code == 2
        assert "REPRO_STORE" in captured.err

    def test_cache_stats_refuses_to_create_a_store(self, capsys, tmp_path):
        missing = str(tmp_path / "resuls")  # typo'd path
        code, captured = run_cli(capsys, "cache", "stats", "--store", missing)
        assert code == 2
        assert "no experiment store" in captured.err
        # Crucially, the typo'd path was not materialised.
        assert not (tmp_path / "resuls").exists()


class TestClusterFaults:
    def test_faults_preset_with_elastic_shrink(self, capsys):
        code, captured = run_cli(
            capsys,
            "cluster",
            "--num-jobs",
            "8",
            "--policy",
            "fifo",
            "--seed",
            "2",
            "--faults",
            "bursty-preemption",
            "--elastic",
            "shrink",
            "--table",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["faults"]["spec"]["name"] == "bursty-preemption"
        assert payload["faults"]["elastic"] == "shrink"
        report = payload["reports"]["fifo"]
        assert report["elastic_policy"] == "shrink"
        assert report["faults_injected"] > 0
        assert 0.0 <= report["goodput"] <= 1.0

    def test_fault_rate_spec(self, capsys):
        code, captured = run_cli(
            capsys,
            "cluster",
            "--num-jobs",
            "6",
            "--policy",
            "fifo",
            "--faults",
            "crash:0.001",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["faults"]["spec"]["crash_rate"] == 0.001

    def test_fault_trace_replay(self, capsys, tmp_path):
        from repro.cluster.faults import FaultEvent, FaultTrace

        trace = tmp_path / "faults.json"
        FaultTrace(
            name="one-crash",
            events=(FaultEvent(time=30.0, kind="crash", node="a6000-0", gpus=2),),
        ).save(trace)
        code, captured = run_cli(
            capsys,
            "cluster",
            "--num-jobs",
            "6",
            "--policy",
            "fifo",
            "--fault-trace",
            str(trace),
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["reports"]["fifo"]["faults_injected"] == 1
        assert payload["faults"]["spec"]["trace"] == "one-crash"

    def test_seeded_fault_run_is_reproducible(self, capsys):
        argv = (
            "cluster",
            "--num-jobs",
            "8",
            "--policy",
            "fifo",
            "--faults",
            "bursty-preemption",
            "--elastic",
            "shrink",
            "--fault-seed",
            "3",
        )
        code, captured = run_cli(capsys, *argv)
        assert code == 0
        first = json.loads(captured.out)["reports"]
        code, captured = run_cli(capsys, *argv)
        assert code == 0
        second = json.loads(captured.out)["reports"]
        assert first == second

    def test_faults_and_fault_trace_are_mutually_exclusive(self, capsys, tmp_path):
        code, captured = run_cli(
            capsys,
            "cluster",
            "--faults",
            "crash:0.01",
            "--fault-trace",
            str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "mutually exclusive" in captured.err


class TestErrorPaths:
    def test_bad_store_path_is_reported_not_raised(self, capsys, tmp_path):
        # --store pointing at an existing *file* cannot become a directory.
        blocker = tmp_path / "store"
        blocker.write_text("not a directory")
        code, captured = run_cli(
            capsys, "run", "--strategy", "DP", "--steps", "4", "--store", str(blocker)
        )
        assert code == 2
        assert "error:" in captured.err
        assert "store" in captured.err

    def test_unknown_strategy_in_tune_space(self, capsys):
        code, captured = run_cli(
            capsys, "tune", "--strategies", "DP,WARP-DRIVE", "--budget", "2"
        )
        assert code == 2
        assert "WARP-DRIVE" in captured.err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--rate", "nan"),
            ("--arrival", "diurnal", "--rate", "nan"),
            ("--arrival", "bursty", "--burst-gap", "nan"),
            ("--faults", "crash:nan"),
            ("--faults", "straggler:inf"),
            ("--tenants", "a:rate=nan"),
            ("--tenants", "a:deadline=strict", "--deadline-slack", "nan"),
        ],
    )
    def test_non_finite_cluster_inputs_exit_2(self, capsys, flags):
        code, captured = run_cli(
            capsys, "cluster", "--num-jobs", "4", "--policy", "fifo", *flags
        )
        assert code == 2
        assert "error:" in captured.err
        assert "finite" in captured.err
        assert captured.out == ""

    def test_unknown_policy_in_cluster(self, capsys):
        code, captured = run_cli(
            capsys, "cluster", "--policy", "coin-flip", "--num-jobs", "4"
        )
        assert code == 2
        assert "unknown policy" in captured.err

    def test_unknown_elastic_policy(self, capsys):
        code, captured = run_cli(
            capsys,
            "cluster",
            "--num-jobs",
            "4",
            "--faults",
            "crash:0.01",
            "--elastic",
            "teleport",
        )
        assert code == 2
        assert "unknown elastic 'teleport'" in captured.err

    def test_unknown_objective_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "--objective", "vibes"])
        assert excinfo.value.code == 2
        assert "--objective" in capsys.readouterr().err

    def test_unknown_fault_preset(self, capsys):
        code, captured = run_cli(
            capsys, "cluster", "--num-jobs", "4", "--faults", "solar-flare"
        )
        assert code == 2
        assert "bad fault spec" in captured.err

    def test_malformed_workload_trace_json(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text("{this is not json")
        code, captured = run_cli(capsys, "cluster", "--workload", str(trace))
        assert code == 2
        assert "malformed workload trace" in captured.err

    def test_workload_trace_with_wrong_shape(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"name": "t"}))  # no "jobs" key
        code, captured = run_cli(capsys, "cluster", "--workload", str(trace))
        assert code == 2
        assert "malformed workload trace" in captured.err

    def test_malformed_fault_trace_json(self, capsys, tmp_path):
        trace = tmp_path / "faults.json"
        trace.write_text('{"events": [{"time": "soon"}]}')
        code, captured = run_cli(
            capsys, "cluster", "--num-jobs", "4", "--fault-trace", str(trace)
        )
        assert code == 2
        assert "malformed fault trace" in captured.err

    def test_missing_fault_trace_file(self, capsys, tmp_path):
        code, captured = run_cli(
            capsys,
            "cluster",
            "--num-jobs",
            "4",
            "--fault-trace",
            str(tmp_path / "nope.json"),
        )
        assert code == 2
        assert "cannot read fault trace" in captured.err


class TestTuneGoodput:
    def test_goodput_objective_round_trip(self, capsys):
        code, captured = run_cli(
            capsys,
            "tune",
            "--objective",
            "goodput_under_faults",
            "--strategies",
            "TR,TR+DPU+AHD",
            "--batch-sizes",
            "128",
            "--gpu-counts",
            "2",
            "--policies",
            "fifo",
            "--driver",
            "exhaustive",
            "--budget",
            "4",
            "--steps",
            "4",
            "--faults",
            "bursty-preemption",
            "--elastic",
            "shrink",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["objective"]["name"] == "goodput_under_faults"
        assert payload["best"]["goodput_jobs_per_hour"] > 0


class TestServe:
    """`repro serve` argument validation (the server itself blocks, so the
    happy path is covered over real sockets in tests/serve/)."""

    def test_out_of_range_port_is_reported(self, capsys):
        code, captured = run_cli(capsys, "serve", "--port", "70000")
        assert code == 2
        assert "error:" in captured.err
        assert "0..65535" in captured.err

    def test_negative_port_is_reported(self, capsys):
        code, captured = run_cli(capsys, "serve", "--port", "-1")
        assert code == 2
        assert "0..65535" in captured.err

    def test_blank_host_is_reported(self, capsys):
        code, captured = run_cli(capsys, "serve", "--host", "  ", "--port", "0")
        assert code == 2
        assert "non-empty" in captured.err

    def test_store_pointing_at_a_file_is_reported(self, capsys, tmp_path):
        not_a_dir = tmp_path / "store.json"
        not_a_dir.write_text("{}")
        code, captured = run_cli(
            capsys, "serve", "--store", str(not_a_dir), "--port", "0"
        )
        assert code == 2
        assert "error:" in captured.err
        assert captured.err.count("\n") == 1  # one clean line, no traceback


class TestOutFailures:
    """--out must turn write failures into exit 2, not a traceback."""

    def test_run_out_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "result.json"
        code, captured = run_cli(
            capsys, "run", "--steps", "4", "--out", str(target)
        )
        assert code == 2
        assert "cannot write --out" in captured.err

    def test_sweep_out_onto_a_directory(self, capsys, tmp_path):
        code, captured = run_cli(
            capsys,
            "sweep",
            "--strategies",
            "DP",
            "--steps",
            "4",
            "--out",
            str(tmp_path),
        )
        assert code == 2
        assert "cannot write --out" in captured.err

    def test_cluster_save_workload_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "workload.json"
        code, captured = run_cli(
            capsys,
            "cluster",
            "--num-jobs",
            "4",
            "--save-workload",
            str(target),
        )
        assert code == 2
        assert "cannot write --save-workload" in captured.err


class TestProfile:
    def test_profile_run_emits_breakdown_and_report(self, capsys):
        code, captured = run_cli(capsys, "profile", "run", "--steps", "4")
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["kind"] == "run"
        assert payload["coverage"] >= 0.95
        names = [row["name"] for row in payload["breakdown"]]
        assert "profile.run" in names
        assert "session.run" in names
        # The human-readable table goes to stderr, JSON stays clean on stdout.
        assert "span" in captured.err and "coverage" in captured.err

    def test_profile_sweep_writes_a_chrome_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code, captured = run_cli(
            capsys,
            "profile",
            "sweep",
            "--steps",
            "4",
            "--trace-out",
            str(trace),
        )
        assert code == 0
        document = json.loads(trace.read_text())
        assert document["displayTimeUnit"] == "ms"
        names = {event["name"] for event in document["traceEvents"]}
        assert "profile.sweep" in names
        assert "session.sweep" in names

    def test_profile_against_a_store_hydrates(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code, _ = run_cli(capsys, "profile", "run", "--steps", "4", "--store", store)
        assert code == 0
        code, captured = run_cli(
            capsys, "profile", "run", "--steps", "4", "--store", store
        )
        assert code == 0
        names = [row["name"] for row in json.loads(captured.out)["breakdown"]]
        assert "store.get" in names  # the second run answers from the store

    def test_trace_out_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "no" / "dir" / "trace.json"
        code, captured = run_cli(
            capsys, "profile", "run", "--steps", "4", "--trace-out", str(target)
        )
        assert code == 2
        assert "cannot write --trace-out" in captured.err

    def test_unknown_kind_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "profile", "everything")


class TestLoggingFlags:
    def test_global_flags_configure_the_repro_logger(self, capsys):
        import logging

        from repro.obs.logs import JsonFormatter

        try:
            code, _ = run_cli(
                capsys, "--log-level", "DEBUG", "--log-json", "run", "--steps", "4"
            )
            assert code == 0
            logger = logging.getLogger("repro")
            assert logger.level == logging.DEBUG
            handler = next(h for h in logger.handlers if h.name == "repro-obs")
            assert isinstance(handler.formatter, JsonFormatter)
        finally:
            from repro.obs.logs import configure_logging

            configure_logging("WARNING", json_format=False)

    def test_unknown_log_level_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "--log-level", "LOUD", "run", "--steps", "4")
