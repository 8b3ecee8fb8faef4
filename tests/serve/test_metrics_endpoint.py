"""``GET /v1/metrics`` and the telemetry riding on every dispatch.

The metrics payload is Prometheus text, not JSON — the one non-JSON
route in the API — so these tests also pin the text/plain contract all
three transports share.
"""

import pytest


class TestMetricsEndpoint:
    def test_payload_is_prometheus_text(self, client):
        # Dispatch telemetry registers its families on first use, after the
        # handler ran — make one request so a pristine process has them.
        client.get("/v1/healthz")
        response = client.get("/v1/metrics")
        assert response.status_code == 200
        with pytest.raises(ValueError):
            response.json()
        text = response.text
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_seconds histogram" in text

    def test_request_histogram_grows_with_traffic(self, client):
        plan = {"strategy": "TR", "num_gpus": 2, "batch_size": 128, "steps": 4}
        assert client.post("/v1/plan", json=plan).status_code == 200
        text = client.get("/v1/metrics").text
        assert 'endpoint="/v1/plan"' in text
        assert 'repro_http_requests_total{endpoint="/v1/plan",status="200"}' in text

    def test_warm_cold_counter_tracks_cache_temperature(self, client):
        plan = {"strategy": "TR", "num_gpus": 2, "batch_size": 128, "steps": 4}

        def warm_count():
            text = client.get("/v1/metrics").text
            for line in text.splitlines():
                if (
                    line.startswith("repro_http_warm_cold_total")
                    and 'temperature="warm"' in line
                    and '"/v1/plan"' in line
                ):
                    return float(line.rpartition(" ")[2])
            return 0.0

        client.post("/v1/plan", json=plan)  # cold
        before = warm_count()
        client.post("/v1/plan", json=plan)  # warm
        assert warm_count() == before + 1

    def test_unknown_paths_are_labelled_unknown(self, client):
        client.get("/nope")
        text = client.get("/v1/metrics").text
        assert 'repro_http_requests_total{endpoint="unknown",status="404"}' in text


class TestHealthzTelemetry:
    def test_uptime_and_requests_served(self, client):
        first = client.get("/v1/healthz").json()
        assert first["uptime_s"] >= 0
        # requests_served counts *completed* dispatches, so the first
        # healthz call reports everything before it — nothing yet.
        assert first["requests_served"] == 0
        second = client.get("/v1/healthz").json()
        assert second["requests_served"] == 1
        assert second["uptime_s"] >= first["uptime_s"]

    def test_every_dispatch_counts(self, client):
        plan = {"strategy": "TR", "num_gpus": 2, "batch_size": 128, "steps": 4}
        client.post("/v1/plan", json=plan)
        client.get("/nope")  # errors count too: they were dispatched
        payload = client.get("/v1/healthz").json()
        assert payload["requests_served"] == 2


class TestBoundHandles:
    """The service, session and store record through ``labels()`` handles
    bound at construction; the text they produce must not change."""

    PLAN = {"strategy": "TR", "num_gpus": 2, "batch_size": 128, "steps": 4}
    SEQUENCE = (
        ("POST", "/v1/plan", PLAN),
        ("POST", "/v1/plan", PLAN),
        ("POST", "/v1/plan", dict(PLAN, strategy="DP")),
        ("POST", "/v1/plan", dict(PLAN, strategy="FSDP")),
        ("GET", "/v1/healthz", None),
        ("GET", "/nope", None),
        ("GET", "/v1/plan", None),
        ("POST", "/v1/plan", dict(PLAN, strategy="DP")),
    )

    @staticmethod
    def keyword_path(registry, dispatches) -> None:
        """Record ``dispatches`` the way every call site did before handles:
        one registry lookup and one keyword call per update."""
        for endpoint, status, meta in dispatches:
            registry.gauge("repro_http_in_flight", "requests currently being handled").inc()
            registry.gauge("repro_http_in_flight", "requests currently being handled").dec()
            registry.histogram(
                "repro_http_request_seconds", "request latency by endpoint"
            ).observe(0.0, endpoint=endpoint)
            registry.counter(
                "repro_http_requests_total", "dispatched requests by endpoint and status"
            ).inc(endpoint=endpoint, status=str(status))
            if meta is None:
                continue
            registry.counter(
                "repro_http_warm_cold_total", "compute requests by cache temperature"
            ).inc(endpoint=endpoint, temperature="warm" if meta["warm"] else "cold")
            runs = registry.counter(
                "repro_session_runs_total",
                "Session.run completions by outcome (simulated vs store_hit)",
            )
            lookups = registry.counter("repro_store_lookups_total", "store lookups by result")
            for _ in range(meta["simulations"]):
                runs.inc(outcome="simulated")
                lookups.inc(result="miss")
            for _ in range(meta["store_hits"]):
                runs.inc(outcome="store_hit")
                lookups.inc(result="hit")
            for _ in range(meta["simulations"] + meta["store_hits"]):
                registry.histogram(
                    "repro_session_run_seconds", "Session.run wall time"
                ).observe(0.0)
            for _ in range(meta["store_builds"]):
                registry.counter(
                    "repro_store_puts_total", "records written to the store"
                ).inc(kind="run")

    def test_metrics_text_matches_the_keyword_path(self, tmp_path, monkeypatch):
        import time

        from repro.obs.metrics import MetricsRegistry, set_registry
        from repro.serve.client import LocalClient
        from repro.serve.service import PlannerService

        # A stopped clock makes every observed duration 0.0 on both paths.
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        bound = MetricsRegistry()
        previous = set_registry(bound)
        try:
            client = LocalClient(PlannerService(store=tmp_path / "store"))
            dispatches = []
            for method, path, body in self.SEQUENCE:
                if method == "POST":
                    response = client.post(path, json=body)
                else:
                    response = client.get(path)
                payload = response.json()
                meta = payload.get("meta", {}).get("request")
                endpoint = path if path.startswith("/v1/") else "unknown"
                dispatches.append((endpoint, response.status_code, meta))
            text = client.get("/v1/metrics").text
        finally:
            set_registry(previous)
        assert [meta["warm"] for _, _, meta in dispatches if meta] == [False, True, False, True]

        keyword = MetricsRegistry()
        self.keyword_path(keyword, dispatches)
        # /v1/metrics renders while its own dispatch is in flight.
        keyword.gauge("repro_http_in_flight", "requests currently being handled").inc()
        assert text == keyword.render_prometheus()
