"""The stdlib HTTP frontend, over real sockets.

Boots :func:`repro.serve.http.start_server` on an ephemeral port and
drives it with ``urllib`` — no third-party HTTP stack involved — to pin
down what the dependency-free deployment path actually serves: the same
service payloads, the same error envelope, correct status codes, and the
warm/cold accounting surviving the wire.
"""

import json
import socket
import urllib.error
import urllib.request
from http.client import HTTPConnection, HTTPResponse

import pytest

from repro.serve.http import MAX_BODY_BYTES, start_server
from repro.serve.service import PlannerService

STEPS = 4
PLAN = {"strategy": "TR", "num_gpus": 2, "batch_size": 128, "steps": STEPS}


@pytest.fixture
def server(store_root):
    service = PlannerService(store=store_root)
    server = start_server(service, host="127.0.0.1", port=0)
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def base_url(server):
    return f"http://127.0.0.1:{server.bound_port}"


def http(method, url, body=None):
    """One request; returns (status, payload) without raising on 4xx/5xx."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def raw_request(port, head):
    """Send raw request bytes; returns (status, payload, headers)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head)
        response = HTTPResponse(sock)
        response.begin()
        return response.status, json.loads(response.read()), response.headers


class TestOverTheWire:
    def test_healthz(self, base_url):
        status, payload = http("GET", f"{base_url}/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["has_store"] is True

    def test_cold_then_warm_plan(self, base_url):
        status, cold = http("POST", f"{base_url}/v1/plan", PLAN)
        assert status == 200
        request_meta = cold["meta"]["request"]
        assert {
            key: request_meta[key]
            for key in ("simulations", "store_hits", "store_builds", "warm")
        } == {
            "simulations": 1,
            "store_hits": 0,
            "store_builds": 1,
            "warm": False,
        }
        # The dispatch telemetry stamps both identifiers over the wire too.
        assert request_meta["request_id"].startswith("req-")
        assert request_meta["duration_ms"] > 0
        status, warm = http("POST", f"{base_url}/v1/plan", PLAN)
        assert status == 200
        assert warm["meta"]["request"]["simulations"] == 0
        assert warm["meta"]["request"]["warm"] is True
        assert warm["meta"]["request"]["request_id"] != request_meta["request_id"]
        assert warm["result"] == cold["result"]

    def test_unknown_path_404(self, base_url):
        status, payload = http("GET", f"{base_url}/nope")
        assert status == 404
        assert payload["error"]["type"] == "not_found"

    def test_wrong_method_405(self, base_url):
        status, payload = http("GET", f"{base_url}/v1/plan")
        assert status == 405
        assert payload["error"]["choices"] == ["POST"]

    def test_unknown_strategy_400_with_choices(self, base_url):
        status, payload = http(
            "POST", f"{base_url}/v1/plan", {"strategy": "FSDP"}
        )
        assert status == 400
        assert "TR+DPU+AHD" in payload["error"]["choices"]

    def test_undecodable_body_400(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/v1/plan",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["type"] == "bad_json"

    def test_validation_422(self, base_url):
        status, payload = http(
            "POST", f"{base_url}/v1/plan", {"batch_size": "large"}
        )
        assert status == 422
        assert payload["error"]["type"] == "validation"

    def test_wire_payload_matches_in_process_dispatch(self, server, base_url):
        """The transport adds nothing: socket bytes == dispatch payload."""
        status, wire = http("POST", f"{base_url}/v1/sweep", {"steps": STEPS})
        assert status == 200
        # A fresh service on the same store answers identically (warm), so
        # compare the deterministic section only.
        wire.pop("meta")
        local_status, local = server.service.dispatch(
            "POST", "/v1/sweep", {"steps": STEPS}
        )
        assert local_status == 200
        local.pop("meta")
        assert json.dumps(wire, indent=2) == json.dumps(local, indent=2)

    @pytest.mark.parametrize("declared", ["abc", "-1", "1.5"])
    def test_malformed_content_length_400(self, server, declared):
        # A non-integer length used to raise inside the handler (empty
        # reply, traceback on the server); a negative one made the handler
        # read until the client hung up.
        head = (
            "POST /v1/plan HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Type: application/json\r\nContent-Length: {declared}\r\n\r\n{{}}"
        )
        status, payload, headers = raw_request(server.bound_port, head.encode())
        assert status == 400
        assert payload["error"]["type"] == "bad_request"
        assert repr(declared) in payload["error"]["message"]
        assert headers["Connection"] == "close"

    @pytest.mark.parametrize("declared", [MAX_BODY_BYTES + 1, 10**14])
    def test_oversized_content_length_413(self, server, declared):
        # A huge length used to allocate the whole buffer up front in
        # rfile.read: a MemoryError traceback and an empty reply.
        head = (
            "POST /v1/plan HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Type: application/json\r\nContent-Length: {declared}\r\n\r\n{{}}"
        )
        status, payload, headers = raw_request(server.bound_port, head.encode())
        assert status == 413
        assert payload["error"]["type"] == "payload_too_large"
        assert headers["Connection"] == "close"

    def test_keep_alive_serves_several_requests_on_one_connection(self, server):
        connection = HTTPConnection("127.0.0.1", server.bound_port, timeout=10)
        try:
            for _ in range(2):
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
                assert response.getheader("Connection") is None
            # A 4xx the service answers keeps the connection usable too.
            connection.request("PUT", "/v1/plan", body=b"{}")
            response = connection.getresponse()
            assert response.status == 405
            response.read()
            connection.request("GET", "/v1/healthz")
            assert connection.getresponse().status == 200
        finally:
            connection.close()

    @pytest.mark.parametrize(
        "method, path, status, kind",
        [
            ("PUT", "/v1/plan", 405, "method_not_allowed"),
            ("PATCH", "/v1/plan", 405, "method_not_allowed"),
            ("DELETE", "/v1/healthz", 405, "method_not_allowed"),
            ("DELETE", "/nope", 404, "not_found"),
        ],
    )
    def test_other_methods_get_the_json_envelope(self, base_url, method, path, status, kind):
        got, payload = http(method, f"{base_url}{path}")
        assert got == status
        assert payload["error"]["type"] == kind
