"""An in-process client for the planner service (no sockets).

:class:`LocalClient` speaks the exact ``dispatch`` protocol the HTTP
frontend uses, with the small ``.get`` / ``.post(json=...)`` /
``.status_code`` / ``.json()`` surface of common HTTP clients, so the
test-suite, the docs examples and the latency benchmark drive the service
without a server.

Example:
    >>> from repro.serve import PlannerService
    >>> from repro.serve.client import LocalClient
    >>> client = LocalClient(PlannerService())
    >>> client.get("/v1/healthz").status_code
    200
"""

from __future__ import annotations

import json as _json
from typing import Optional

from repro.serve.service import PlannerService

__all__ = ["ClientResponse", "LocalClient"]


class ClientResponse:
    """Minimal response object mirroring the ``requests`` surface."""

    def __init__(self, status_code: int, payload) -> None:
        self.status_code = status_code
        self._payload = payload

    def json(self) -> dict:
        if isinstance(self._payload, str):
            # /v1/metrics serves Prometheus text, not JSON — the same
            # error an HTTP client raises on decoding a text/plain body.
            raise ValueError("response payload is text, not JSON; use .text")
        return self._payload

    @property
    def text(self) -> str:
        if isinstance(self._payload, str):
            return self._payload
        return _json.dumps(self._payload, indent=2)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClientResponse(status_code={self.status_code})"


class LocalClient:
    """Call a :class:`PlannerService` directly, request/response style."""

    def __init__(self, service: PlannerService) -> None:
        self.service = service

    def get(self, path: str) -> ClientResponse:
        return ClientResponse(*self.service.dispatch("GET", path, None))

    def post(self, path: str, json: Optional[dict] = None) -> ClientResponse:
        return ClientResponse(*self.service.dispatch("POST", path, json))
