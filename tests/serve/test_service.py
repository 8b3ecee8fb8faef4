"""Happy paths for every serve endpoint, validated against the typed envelopes."""

import json

from repro.serve.schemas import response_model_for
from repro.version import __version__

STEPS = 4


def plan_body(**overrides):
    body = {"strategy": "TR", "num_gpus": 2, "batch_size": 128, "steps": STEPS}
    body.update(overrides)
    return body


def validated(path, response):
    """Assert 200 and that the payload conforms to the route's envelope."""
    assert response.status_code == 200, response.json()
    payload = response.json()
    response_model_for(path).model_validate(payload)
    return payload


class TestHealthz:
    def test_reports_version_store_and_routes(self, client, store_root):
        payload = validated("/v1/healthz", client.get("/v1/healthz"))
        assert payload["status"] == "ok"
        assert payload["version"] == __version__
        assert payload["has_store"] is True
        assert payload["store_root"] == str(store_root)
        assert payload["backend"] == "inline"
        assert "/v1/plan" in payload["endpoints"]
        assert "/v1/precompute" in payload["endpoints"]

    def test_storeless_service(self, bare_client):
        payload = validated("/v1/healthz", bare_client.get("/v1/healthz"))
        assert payload["has_store"] is False
        assert payload["store_root"] is None

    def test_trailing_slash_and_query_are_tolerated(self, service):
        # Dispatch-level normalisation, independent of the HTTP frontend.
        status, payload = service.dispatch("get", "/v1/healthz/?verbose=1", None)
        assert (status, payload["status"]) == (200, "ok")

    def test_each_route_answers_one_method(self, service):
        assert service.methods_for("/v1/healthz") == ("GET",)
        assert service.methods_for("/v1/plan") == ("POST",)
        assert service.methods_for("/nope") == ()
        assert all(len(service.methods_for(path)) == 1 for path in service.paths())


class TestStoreStats:
    def test_counts_grow_with_requests(self, client):
        before = validated("/v1/store/stats", client.get("/v1/store/stats"))
        assert before["has_store"] is True
        assert client.post("/v1/plan", json=plan_body()).status_code == 200
        after = validated("/v1/store/stats", client.get("/v1/store/stats"))
        assert after["records_by_kind"].get("run", 0) == 1
        assert after["session"]["runs"] == before["session"]["runs"] + 1

    def test_storeless_shape(self, bare_client):
        payload = validated("/v1/store/stats", bare_client.get("/v1/store/stats"))
        assert payload["has_store"] is False
        assert "session" in payload


class TestPlan:
    def test_plan_returns_config_result_and_meta(self, client):
        payload = validated("/v1/plan", client.post("/v1/plan", json=plan_body()))
        assert payload["config"]["strategy"] == "TR"
        assert payload["config"]["simulated_steps"] == STEPS
        assert payload["result"]["epoch_time_s"] > 0
        meta = payload["meta"]
        assert meta["endpoint"] == "/v1/plan"
        assert meta["request"]["simulations"] == 1
        assert meta["request"]["warm"] is False
        assert meta["store"]["disk_bytes"] > 0

    def test_empty_body_uses_defaults(self, bare_client):
        payload = validated("/v1/plan", bare_client.post("/v1/plan", json={}))
        assert payload["config"]["strategy"] == "TR+DPU+AHD"
        assert payload["config"]["task"] == "nas"
        # No store: the meta section must omit the store summary.
        assert "store" not in payload["meta"]


class TestSweep:
    def test_grid_axes_and_cells(self, client):
        body = {
            "batch_sizes": [128, 256],
            "strategies": ["DP", "TR"],
            "steps": STEPS,
        }
        payload = validated("/v1/sweep", client.post("/v1/sweep", json=body))
        assert payload["strategies"] == ["DP", "TR"]
        assert [cell["config"]["batch_size"] for cell in payload["cells"]] == [128, 256]
        assert payload["meta"]["request"]["simulations"] == 4

    def test_backend_choice_is_honoured(self, client):
        body = {"strategies": ["DP"], "steps": STEPS, "backend": "thread"}
        payload = validated("/v1/sweep", client.post("/v1/sweep", json=body))
        assert len(payload["cells"]) == 1


class TestCluster:
    def test_policy_all_compares_every_policy(self, client):
        body = {"num_jobs": 8, "seed": 0}
        payload = validated("/v1/cluster", client.post("/v1/cluster", json=body))
        assert set(payload["reports"]) == {
            "fifo",
            "best-fit",
            "sjf",
            "priority",
            "fair-share",
            "deadline-aware",
        }
        for report in payload["reports"].values():
            assert report["makespan_s"] > 0
        assert "faults" not in payload

    def test_single_policy_with_faults(self, client):
        body = {
            "num_jobs": 6,
            "policy": "fifo",
            "faults": "bursty-preemption",
            "elastic": "shrink",
        }
        payload = validated("/v1/cluster", client.post("/v1/cluster", json=body))
        assert list(payload["reports"]) == ["fifo"]
        assert payload["faults"]["elastic"] == "shrink"
        assert payload["faults"]["spec"]["name"] == "bursty-preemption"

    def test_inline_workload_document(self, client):
        from repro.cluster.workload import poisson_workload

        workload = poisson_workload(num_jobs=5, rate=0.5, seed=3)
        body = {"workload": workload.to_dict(), "policy": "fifo"}
        payload = validated("/v1/cluster", client.post("/v1/cluster", json=body))
        assert payload["workload"] == workload.name
        assert payload["reports"]["fifo"]["num_jobs"] == 5


class TestTune:
    def test_exhaustive_tiny_space(self, client):
        body = {
            "driver": "exhaustive",
            "strategies": ["DP", "TR"],
            "batch_sizes": [128],
            "gpu_counts": [2],
            "servers": ["a6000"],
            "tasks": ["nas"],
            "datasets": ["cifar10"],
            "budget": 8,
            "steps": STEPS,
        }
        payload = validated("/v1/tune", client.post("/v1/tune", json=body))
        assert payload["best"]["point"]["strategy"] in ("DP", "TR")
        assert payload["meta"]["request"]["simulations"] > 0
        assert payload["frontier"]


class TestPrecompute:
    def test_warms_the_grid_once(self, client):
        body = {
            "batch_sizes": [128, 256],
            "strategies": ["DP", "TR"],
            "steps": STEPS,
        }
        payload = validated(
            "/v1/precompute", client.post("/v1/precompute", json=body)
        )
        assert payload["grid_size"] == 4
        assert payload["simulated"] == 4
        assert payload["hydrated"] == 0
        assert payload["store"]["disk_bytes"] > 0
        # Precomputing the same grid again hydrates everything.
        second = validated(
            "/v1/precompute", client.post("/v1/precompute", json=body)
        )
        assert second["simulated"] == 0
        assert second["hydrated"] == 4
        assert second["meta"]["request"]["warm"] is True

    def test_default_strategies_cover_the_registry(self, client):
        from repro.parallel.registry import REGISTRY

        body = {"steps": STEPS}
        payload = validated(
            "/v1/precompute", client.post("/v1/precompute", json=body)
        )
        assert payload["spec"]["strategies"] is None
        assert payload["grid_size"] == len(REGISTRY.names())


class TestDeterminism:
    def test_identical_requests_have_identical_deterministic_sections(
        self, client
    ):
        body = plan_body()
        first = client.post("/v1/plan", json=body).json()
        second = client.post("/v1/plan", json=body).json()
        first.pop("meta")
        second.pop("meta")
        assert json.dumps(first, indent=2) == json.dumps(second, indent=2)
