"""Liveness regression tests: read-only endpoints during slow dispatches.

The original bug: every handler — including ``/v1/healthz`` — ran under
the service's session lock, so a multi-second compute dispatch made the
liveness probe hang and orchestrators restarted a healthy-but-busy
process.  These tests pin the fix at both layers: the service's
read-only exemption set, and an end-to-end probe over the threaded
stdlib transport while a slow request is in flight.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.serve.service import PlannerService

#: Generous bound for "answers immediately": orders of magnitude below
#: the blocked dispatch's hold time, far above scheduler jitter.
PROMPT_SECONDS = 2.0
HOLD_TIMEOUT = 15.0


@pytest.fixture
def slow_service():
    """A storeless service whose /v1/plan blocks until released."""
    service = PlannerService()
    entered = threading.Event()
    release = threading.Event()

    def slow_plan(_body):
        entered.set()
        release.wait(timeout=HOLD_TIMEOUT)
        return 200, {"status": "slow-done"}

    service._routes[("POST", "/v1/plan")] = slow_plan
    try:
        yield service, entered, release
    finally:
        release.set()


def dispatch_in_thread(service, method, path, body=None):
    result = {}

    def call():
        result["response"] = service.dispatch(method, path, body)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    return thread, result


class TestReadOnlyExemption:
    @pytest.mark.parametrize(
        "method,path",
        [
            ("GET", "/v1/healthz"),
            ("GET", "/v1/metrics"),
            ("GET", "/v1/store/stats"),
        ],
    )
    def test_read_only_endpoints_answer_while_lock_is_held(
        self, slow_service, method, path
    ):
        service, entered, release = slow_service
        thread, _ = dispatch_in_thread(service, "POST", "/v1/plan", {})
        assert entered.wait(PROMPT_SECONDS), "slow dispatch never started"
        # The session lock is now held by the in-flight plan.
        started = time.monotonic()
        status, _payload = service.dispatch(method, path, None)
        elapsed = time.monotonic() - started
        assert status == 200
        assert elapsed < PROMPT_SECONDS, (
            f"{method} {path} took {elapsed:.1f}s while a compute dispatch "
            "held the lock — the read-only exemption regressed"
        )
        release.set()
        thread.join(PROMPT_SECONDS)

    def test_compute_endpoints_still_serialise(self, slow_service):
        # The exemption must not leak to compute routes: a second compute
        # dispatch keeps waiting for the lock until the first releases it.
        service, entered, release = slow_service
        first, _ = dispatch_in_thread(service, "POST", "/v1/plan", {})
        assert entered.wait(PROMPT_SECONDS)
        second, result = dispatch_in_thread(
            service, "POST", "/v1/sweep", {"strategies": ["DP"], "steps": 4}
        )
        second.join(0.3)
        assert second.is_alive(), "compute dispatch bypassed the session lock"
        release.set()
        second.join(HOLD_TIMEOUT)
        assert not second.is_alive()
        assert result["response"][0] == 200
        first.join(PROMPT_SECONDS)

    def test_exemption_set_is_exactly_the_read_only_routes(self):
        service = PlannerService()
        assert service._read_only == {
            ("GET", "/v1/healthz"),
            ("GET", "/v1/metrics"),
            ("GET", "/v1/store/stats"),
        }
        # Every exempt route must actually be registered.
        for key in service._read_only:
            assert key in service._routes


class TestHttpTransportLiveness:
    def test_healthz_over_http_while_a_dispatch_blocks(self, slow_service):
        from repro.serve.http import start_server

        service, entered, release = slow_service
        server = start_server(service, host="127.0.0.1", port=0)
        base = f"http://127.0.0.1:{server.bound_port}"
        try:
            blocker = threading.Thread(
                target=urllib.request.urlopen,
                args=(
                    urllib.request.Request(
                        f"{base}/v1/plan", data=b"{}", method="POST"
                    ),
                ),
                kwargs={"timeout": HOLD_TIMEOUT},
                daemon=True,
            )
            blocker.start()
            assert entered.wait(PROMPT_SECONDS), "slow request never arrived"
            started = time.monotonic()
            with urllib.request.urlopen(
                f"{base}/v1/healthz", timeout=PROMPT_SECONDS
            ) as response:
                payload = json.loads(response.read())
            elapsed = time.monotonic() - started
            assert payload["status"] == "ok"
            assert elapsed < PROMPT_SECONDS
            release.set()
            blocker.join(PROMPT_SECONDS)
        finally:
            release.set()
            server.shutdown()
            server.server_close()
