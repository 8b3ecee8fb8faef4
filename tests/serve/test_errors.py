"""Error mapping: every rejection is a clean, typed JSON body — never a traceback.

The contract under test (``repro.serve.service`` module docstring): 422
for shape errors, 400 for domain rejections (with the registry's valid
choices when a name is unknown), 404/405 for routing, and a structured
``error`` object everywhere.
"""

import math
import threading

import pytest

from repro.serve.client import LocalClient
from repro.serve.schemas import ErrorResponse
from repro.serve.service import PlannerService

STEPS = 4


def rejected(response, status):
    """Assert the status and the error envelope; return the error body."""
    assert response.status_code == status, response.json()
    payload = response.json()
    ErrorResponse.model_validate(payload)
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
    """422 with pydantic's error detail for shape problems."""

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

    def test_infeasible_config_is_400_not_500(self, client):
        error = rejected(client.post("/v1/plan", json={"num_gpus": -3}), 400)
        assert error["type"] == "domain"

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
