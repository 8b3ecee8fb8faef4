"""The request layer: one set of request types and commands for CLI and HTTP.

``repro.commands`` holds the request dataclasses and the code that runs
them; ``repro.cli`` generates its flags from the dataclass fields and
``PlannerService`` validates bodies into the same types.  These tests pin
the consequences: the CLI's defaults are the request defaults, only
``None`` means "use the default" (an empty axis is an error on both
frontends), and, for generated requests, the two frontends agree on the
outcome and, on success, on every deterministic payload byte.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import _request, build_parser, main
from repro.cluster.faults import parse_fault_spec
from repro.cluster.spec import default_cluster
from repro.cluster.workload import poisson_workload
from repro.commands import (
    ClusterRequest,
    PlanRequest,
    PrecomputeRequest,
    SweepRequest,
    TuneRequest,
)
from repro.serve.client import LocalClient
from repro.serve.service import PlannerService

STEPS = 4

#: Bookkeeping keys that legitimately differ between frontends (as in
#: ``tests/serve/test_parity.py``).
STATS_KEYS = frozenset({"meta", "session_stats", "warm_cold", "store", "evaluator_stats"})

#: CLI subcommand and HTTP path per request type.
FRONTENDS = {
    PlanRequest: ("run", "/v1/plan"),
    SweepRequest: ("sweep", "/v1/sweep"),
    ClusterRequest: ("cluster", "/v1/cluster"),
    TuneRequest: ("tune", "/v1/tune"),
    PrecomputeRequest: ("precompute", "/v1/precompute"),
}


def run_cli(*argv):
    """``(exit code, stdout)``; argparse rejections count as exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as error:
            code = error.code
    return code, out.getvalue()


def post(path, body, store=None):
    response = LocalClient(PlannerService(store=store)).post(path, json=body)
    return response.status_code, response.json()


def argv_for(command, body, directory):
    """The CLI invocation spelling ``body``; documents go to files."""
    argv = [command]
    for name, value in body.items():
        if isinstance(value, dict):
            path = Path(directory) / f"{name}.json"
            path.write_text(json.dumps(value))
            value = str(path)
        elif isinstance(value, list):
            value = ",".join(str(item) for item in value)
        argv.append(f"--{name.replace('_', '-')}={value}")
    return argv


def deterministic(payload):
    return json.dumps(
        {key: value for key, value in payload.items() if key not in STATS_KEYS},
        sort_keys=True,
    )


class TestCliDefaults:
    @pytest.mark.parametrize("request_type", list(FRONTENDS), ids=lambda t: t.__name__)
    def test_bare_subcommand_spells_the_default_request(self, request_type, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        command, _ = FRONTENDS[request_type]
        args = build_parser().parse_args([command])
        assert _request(request_type, args) == request_type()

    def test_tune_deadline_slack_is_a_plain_default(self):
        assert TuneRequest().deadline_slack == ClusterRequest().deadline_slack == 900.0


class TestEmptyValuesAreErrors:
    """Only ``None`` means "use the default"; empty axes are rejected."""

    @pytest.mark.parametrize(
        "field", ["strategies", "batch_sizes", "gpu_counts", "servers", "tasks", "datasets"]
    )
    def test_empty_tune_axis(self, field):
        code, out = run_cli("tune", f"--{field.replace('_', '-')}=", "--budget=2")
        assert (code, out) == (2, "")
        status, payload = post("/v1/tune", {field: [], "budget": 2})
        assert status == 400, payload
        assert field in payload["error"]["message"]

    @pytest.mark.parametrize(
        "field, axis",
        [
            ("batch_sizes", "batch_size"),
            ("gpu_counts", "num_gpus"),
            ("datasets", "dataset"),
            ("servers", "server"),
            ("tasks", "task"),
            ("strategies", "strategy"),
        ],
    )
    def test_empty_sweep_axis(self, field, axis):
        code, out = run_cli("sweep", f"--{field.replace('_', '-')}=", f"--steps={STEPS}")
        assert (code, out) == (2, "")
        status, payload = post("/v1/sweep", {field: [], "steps": STEPS})
        assert status == 400, payload
        assert axis in payload["error"]["message"]

    @pytest.mark.parametrize(
        "command, path, size",
        [("cluster", "/v1/cluster", "num_jobs"), ("tune", "/v1/tune", "budget")],
    )
    def test_empty_nodes(self, command, path, size):
        code, out = run_cli(command, "--nodes=", f"--{size.replace('_', '-')}=2")
        assert (code, out) == (2, "")
        status, payload = post(path, {"nodes": "", size: 2})
        assert status == 400, payload
        assert "cluster shorthand" in payload["error"]["message"]


class TestDeadlineSlackBoundary:
    @pytest.mark.parametrize(
        "tenants", ["a:rate=0.1", "a:rate=0.1;b:deadline=strict,rate=0.1"]
    )
    def test_negative_slack_names_the_argument(self, tenants):
        body = {"deadline_slack": -1, "tenants": tenants, "num_jobs": 4}
        status, payload = post("/v1/cluster", body)
        assert status == 400, payload
        assert "deadline_slack must be finite and > 0" in payload["error"]["message"]
        code, out = run_cli(
            "cluster", "--deadline-slack=-1", f"--tenants={tenants}", "--num-jobs=4"
        )
        assert (code, out) == (2, "")


# ---------------------------------------------------------------------- #
# Generated requests: both frontends agree
# ---------------------------------------------------------------------- #
WORKLOAD = poisson_workload(3, 0.5, seed=1).to_dict()
FAULT_TRACE = (
    parse_fault_spec("crash:0.01").trace(default_cluster(), horizon=300.0, seed=1).to_dict()
)


def small_list(values, max_size=2):
    return st.lists(st.sampled_from(values), max_size=max_size, unique=True)


#: Bounded values per request field, valid and invalid, so the generated
#: requests stay cheap and reach both the 200 and the 400/422 paths.
FIELD_VALUES = {
    "task": st.sampled_from(["nas", "compression", "llm"]),
    "dataset": st.sampled_from(["cifar10", "imagenet", "mnist"]),
    "server": st.sampled_from(["a6000", "2080ti", "h100"]),
    "num_gpus": st.integers(0, 4),
    "batch_size": st.sampled_from([64, 128, 256]),
    "strategy": st.sampled_from(["DP", "TR", "TR+DPU+AHD", "FSDP"]),
    "steps": st.integers(3, 5),
    "batch_sizes": small_list([64, 128, 256]),
    "gpu_counts": small_list([1, 2, 4]),
    "datasets": small_list(["cifar10", "imagenet"]),
    "servers": small_list(["a6000", "2080ti"]),
    "tasks": small_list(["nas", "compression"], max_size=1),
    "strategies": small_list(["DP", "TR", "TR+DPU+AHD", "ZeRO"]),
    "backend": st.sampled_from(["inline", "ray"]),
    "nodes": st.sampled_from(["a6000:2", "a6000:4,2080ti:2", "", "x"]),
    "policy": st.sampled_from(["all", "fifo", "sjf", "drf"]),
    "num_jobs": st.integers(0, 4),
    "arrival": st.sampled_from(["poisson", "bursty", "diurnal", "uniform"]),
    "rate": st.sampled_from([0.1, 0.5, 0.0]),
    "burst_size": st.integers(1, 3),
    "burst_gap": st.sampled_from([30.0, 120.0]),
    "seed": st.integers(0, 3),
    "workload": st.sampled_from([WORKLOAD, {"jobs": "nope"}]),
    "tenants": st.sampled_from(
        ["a:rate=0.1", "a:rate=0.1;b:priority=2,deadline=strict,rate=0.2", "", "a:rate=x"]
    ),
    "price_curve": st.sampled_from(["spot", "0:1.0,60:2.0", "", "bogus"]),
    "deadline_slack": st.sampled_from([60.0, 900.0, 0.0, -1.0]),
    "faults": st.sampled_from(["crash:0.01", "bursty-preemption", "", "meteor:1"]),
    "fault_trace": st.sampled_from([FAULT_TRACE, {"events": 7}]),
    "elastic": st.sampled_from(["restart", "shrink", "migrate", "teleport"]),
    "fault_seed": st.integers(0, 2),
    "objective": st.sampled_from(["epoch_time", "cost", "jobs_per_hour", "vibes"]),
    "driver": st.sampled_from(["exhaustive", "random", "successive-halving", "bayes"]),
    "budget": st.integers(0, 3),
    "policies": small_list(["fifo", "sjf", "edf"]),
    "deadline": st.sampled_from([1e9, 10.0]),
    "grid": st.sampled_from(["smoke", "nightly"]),
    "max_cells": st.integers(-1, 3),
}


def bodies(request_type):
    """Request bodies setting any subset of the type's fields."""
    names = [spec.name for spec in dataclasses.fields(request_type)]
    return st.fixed_dictionaries({}, optional={name: FIELD_VALUES[name] for name in names})


def test_every_request_field_has_generated_values():
    for request_type in FRONTENDS:
        for spec in dataclasses.fields(request_type):
            assert spec.name in FIELD_VALUES, (request_type.__name__, spec.name)


@pytest.mark.parametrize("request_type", list(FRONTENDS), ids=lambda t: t.__name__)
def test_cli_and_http_agree_on_generated_requests(request_type, monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    command, path = FRONTENDS[request_type]

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(body=bodies(request_type))
    def check(body):
        with tempfile.TemporaryDirectory() as directory:
            # Precompute warms a store: each frontend gets its own.
            stores = [
                str(Path(directory) / side) if request_type is PrecomputeRequest else None
                for side in ("http", "cli")
            ]
            status, payload = post(path, body, store=stores[0])
            assert status in (200, 400, 422), payload
            argv = argv_for(command, body, directory)
            if stores[1] is not None:
                argv.append(f"--store={stores[1]}")
            code, out = run_cli(*argv)
        if status == 200:
            assert code == 0
            assert deterministic(json.loads(out)) == deterministic(payload)
        else:
            assert code == 2, payload

    check()
