"""Error mapping: every rejection is a clean, typed JSON body — never a traceback.

The contract under test (``repro.serve.service`` module docstring): 422
for shape errors, 400 for domain rejections (with the registry's valid
choices when a name is unknown), 404/405 for routing, and a structured
``error`` object everywhere.
"""

import math
import threading

import pytest

from repro.hardware.server import MAX_GPUS
from repro.parallel.executor import MAX_SIMULATED_STEPS
from repro.serve.client import LocalClient
from repro.serve.service import PlannerService
from tests.serve.shapes import ERROR, check_shape

STEPS = 4


def rejected(response, status):
    """Assert the status and the error envelope; return the error body."""
    assert response.status_code == status, response.json()
    payload = response.json()
    check_shape(payload, ERROR)
    error = payload["error"]
    assert error["status"] == status
    assert "Traceback" not in error["message"]
    return error


class TestUnknownChoices:
    """400 with field / value / the registry's valid choices."""

    @pytest.mark.parametrize(
        "path, body, field, value, expected_choice",
        [
            ("/v1/plan", {"strategy": "FSDP"}, "strategy", "FSDP", "TR+DPU+AHD"),
            ("/v1/plan", {"task": "llm"}, "task", "llm", "nas"),
            ("/v1/plan", {"dataset": "mnist"}, "dataset", "mnist", "cifar10"),
            ("/v1/plan", {"server": "h100"}, "server", "h100", "a6000"),
            ("/v1/sweep", {"strategies": ["DP", "ZeRO"]}, "strategy", "ZeRO", "DP"),
            ("/v1/sweep", {"backend": "ray"}, "backend", "ray", "inline"),
            ("/v1/cluster", {"policy": "drf"}, "policy", "drf", "fifo"),
            ("/v1/cluster", {"elastic": "pause"}, "elastic", "pause", "restart"),
            ("/v1/cluster", {"arrival": "uniform"}, "arrival", "uniform", "poisson"),
            ("/v1/tune", {"objective": "latency"}, "objective", "latency", "epoch_time"),
            ("/v1/tune", {"driver": "bayes"}, "driver", "bayes", "exhaustive"),
            ("/v1/tune", {"policies": ["edf"]}, "policy", "edf", "sjf"),
            ("/v1/precompute", {"servers": ["tpu"]}, "server", "tpu", "2080ti"),
            ("/v1/precompute", {"grid": "nightly"}, "grid", "nightly", "smoke"),
        ],
    )
    def test_unknown_name_lists_valid_choices(
        self, client, path, body, field, value, expected_choice
    ):
        error = rejected(client.post(path, json=body), 400)
        assert error["type"] == "unknown_choice"
        assert error["field"] == field
        assert error["value"] == value
        assert expected_choice in error["choices"]
        assert value not in error["choices"]


class TestValidation:
    """422 with a ``{loc, msg, type}`` detail list for shape problems."""

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/plan", {"batch_size": "large"}),
            ("/v1/plan", {"nonexistent_field": 1}),
            ("/v1/sweep", {"batch_sizes": "128,256"}),
            ("/v1/cluster", {"workload": "not-a-document"}),
            ("/v1/tune", {"budget": "unlimited"}),
            ("/v1/precompute", {"gpu_counts": [4], "extra": True}),
        ],
    )
    def test_shape_errors_are_422(self, client, path, body):
        error = rejected(client.post(path, json=body), 422)
        assert error["type"] == "validation"
        assert error["detail"]

    def test_malformed_inline_workload_is_422(self, client):
        error = rejected(
            client.post("/v1/cluster", json={"workload": {"jobs": "nope"}}), 422
        )
        assert error["type"] == "malformed_document"
        assert error["field"] == "workload"

    def test_malformed_inline_fault_trace_is_422(self, client):
        error = rejected(
            client.post("/v1/cluster", json={"fault_trace": {"events": 7}}), 422
        )
        assert error["type"] == "malformed_document"
        assert error["field"] == "fault_trace"


class TestDomainRules:
    def test_bad_fault_spec_names_the_presets(self, client):
        error = rejected(
            client.post("/v1/cluster", json={"faults": "meteor:0.5"}), 400
        )
        assert error["type"] == "bad_fault_spec"
        assert error["field"] == "faults"
        assert "bursty-preemption" in error["choices"]
        assert "flaky-fleet" in error["choices"]

    def test_faults_and_trace_are_mutually_exclusive(self, client):
        body = {
            "faults": "bursty-preemption",
            "fault_trace": {"name": "t", "horizon_s": 1.0, "events": []},
        }
        error = rejected(client.post("/v1/cluster", json=body), 400)
        assert "mutually exclusive" in error["message"]

    def test_tune_deadline_requires_cost_objective(self, client):
        body = {"objective": "epoch_time", "deadline": 100.0}
        error = rejected(client.post("/v1/tune", json=body), 400)
        assert error["field"] == "deadline"
        assert "cost" in error["message"]

    @pytest.mark.parametrize("deadline", [0.0, math.nan])
    def test_tune_deadline_must_be_positive(self, client, deadline):
        body = {"objective": "cost", "deadline": deadline, "budget": 2, "steps": STEPS}
        error = rejected(client.post("/v1/tune", json=body), 400)
        assert error["type"] == "domain"
        assert "deadline must be > 0" in error["message"]

    def test_precompute_without_store_is_400(self, bare_client):
        error = rejected(
            bare_client.post("/v1/precompute", json={"steps": STEPS}), 400
        )
        assert error["type"] == "no_store"
        assert "--store" in error["message"]

    def test_precompute_empty_axis_is_400(self, client):
        error = rejected(
            client.post("/v1/precompute", json={"batch_sizes": []}), 400
        )
        assert error["field"] == "batch_sizes"

    @pytest.mark.parametrize(
        "body, field",
        [
            ({"batch_sizes": [128]}, "batch_sizes"),
            ({"strategies": ["DP"]}, "strategies"),
            ({"steps": STEPS}, "steps"),
        ],
    )
    def test_precompute_grid_with_a_non_default_axis_is_400(self, client, body, field):
        error = rejected(client.post("/v1/precompute", json={"grid": "smoke", **body}), 400)
        assert error["type"] == "domain"
        assert error["field"] == field
        assert "'smoke'" in error["message"]

    def test_precompute_negative_max_cells_is_400(self, client, service):
        error = rejected(client.post("/v1/precompute", json={"max_cells": -1}), 400)
        assert error["type"] == "domain"
        assert "max_cells" in error["message"]
        assert service.session.stats.runs == 0

    def test_a_batch_past_the_dataset_is_400_before_any_profile_build(self, client, service):
        body = {"batch_size": 10_000_000, "num_gpus": MAX_GPUS}
        error = rejected(client.post("/v1/plan", json=body), 400)
        assert error["type"] == "domain"
        assert "exceeds the cifar10 training set (50000 samples)" in error["message"]
        assert service.session.stats.profile_builds == 0

    def test_infeasible_config_is_400_not_500(self, client):
        error = rejected(client.post("/v1/plan", json={"num_gpus": -3}), 400)
        assert error["type"] == "domain"

    @pytest.mark.parametrize(
        "body, limit",
        [
            ({"steps": MAX_SIMULATED_STEPS + 1}, "MAX_SIMULATED_STEPS"),
            ({"steps": 1_000_000}, "MAX_SIMULATED_STEPS"),
            ({"num_gpus": MAX_GPUS + 1}, "MAX_GPUS"),
            ({"num_gpus": 64, "batch_size": 256}, "MAX_GPUS"),
        ],
    )
    def test_a_plan_past_a_size_limit_is_400_naming_it(self, client, body, limit):
        error = rejected(client.post("/v1/plan", json=body), 400)
        assert error["type"] == "domain"
        assert limit in error["message"]
        bound = MAX_SIMULATED_STEPS if limit == "MAX_SIMULATED_STEPS" else MAX_GPUS
        assert f"<= {bound}" in error["message"]

    def test_an_inline_cluster_job_past_the_step_limit_is_400(self, client):
        job = {"job_id": "long", "arrival_time": 0.0, "gpus": 2, "simulated_steps": 100_000}
        body = {"policy": "fifo", "workload": {"jobs": [job]}}
        error = rejected(client.post("/v1/cluster", json=body), 400)
        assert error["type"] == "domain"
        assert "'long'" in error["message"]
        assert f"<= {MAX_SIMULATED_STEPS} (MAX_SIMULATED_STEPS)" in error["message"]

    def test_a_cluster_node_past_the_gpu_limit_is_400(self, client):
        body = {"policy": "fifo", "nodes": f"a6000:{MAX_GPUS + 1}", "num_jobs": 2}
        error = rejected(client.post("/v1/cluster", json=body), 400)
        assert error["type"] == "domain"
        assert "MAX_GPUS" in error["message"]

    def test_the_largest_allowed_step_count_is_served(self, client):
        body = {"strategy": "DP", "num_gpus": 2, "batch_size": 128, "steps": MAX_SIMULATED_STEPS}
        response = client.post("/v1/plan", json=body)
        assert response.status_code == 200
        assert response.json()["config"]["simulated_steps"] == MAX_SIMULATED_STEPS

    @pytest.mark.parametrize("curve", ["0:nan", "0:1,100:2@inf"])
    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/cluster", {"num_jobs": 4, "policy": "fifo"}),
            (
                "/v1/tune",
                {"objective": "deadline_hit_rate", "policies": ["fifo"], "steps": STEPS},
            ),
        ],
    )
    def test_non_finite_price_curve_is_400(self, client, path, body, curve):
        response = client.post(path, json={**body, "price_curve": curve})
        error = rejected(response, 400)
        assert error["type"] == "bad_price_curve"
        assert error["field"] == "price_curve"
        assert "finite" in error["message"]

    @pytest.mark.parametrize("slack", [math.inf, math.nan])
    def test_non_finite_tune_deadline_slack_is_400(self, client, slack):
        body = {
            "objective": "deadline_hit_rate",
            "policies": ["fifo"],
            "budget": 2,
            "steps": STEPS,
            "deadline_slack": slack,
        }
        error = rejected(client.post("/v1/tune", json=body), 400)
        assert "finite" in error["message"]

    def test_nan_cluster_rate_is_400_promptly(self):
        # A NaN rate used to hang the fleet loop while holding the compute
        # lock; the daemon thread keeps a regression from hanging the suite.
        client = LocalClient(PlannerService())
        responses = []
        worker = threading.Thread(
            target=lambda: responses.append(
                client.post("/v1/cluster", json={"num_jobs": 5, "rate": math.nan})
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=20.0)
        assert responses, "POST /v1/cluster with rate=NaN did not return"
        error = rejected(responses[0], 400)
        assert "finite" in error["message"]


class TestRouting:
    def test_unknown_path_is_404_with_route_list(self, client):
        error = rejected(client.get("/v2/plan"), 404)
        assert error["type"] == "not_found"
        assert "/v1/plan" in error["choices"]

    def test_wrong_method_is_405_with_allowed_methods(self, client):
        error = rejected(client.get("/v1/plan"), 405)
        assert error["type"] == "method_not_allowed"
        assert error["choices"] == ["POST"]

    def test_post_on_healthz_is_405(self, client):
        error = rejected(client.post("/v1/healthz", json={}), 405)
        assert error["choices"] == ["GET"]


class TestRawBodies:
    """dispatch_raw guards the HTTP frontend against undecodable bodies."""

    def test_invalid_json_is_400(self, service):
        status, payload = service.dispatch_raw("POST", "/v1/plan", b"{nope")
        assert status == 400
        assert payload["error"]["type"] == "bad_json"

    def test_non_object_body_is_400(self, service):
        status, payload = service.dispatch_raw("POST", "/v1/plan", b"[1, 2]")
        assert status == 400
        assert "JSON object" in payload["error"]["message"]

    def test_empty_body_means_defaults(self, service):
        status, payload = service.dispatch_raw("POST", "/v1/plan", b"")
        assert status == 200
        assert payload["config"]["strategy"] == "TR+DPU+AHD"
