"""The HTTP frontend of the planner service (stdlib only).

A thin :class:`~http.server.ThreadingHTTPServer` that forwards every
request to :meth:`PlannerService.dispatch_raw`, so ``repro serve``, the
load-test harness and the CI smoke jobs work on a bare python install.
All behaviour lives in the service; the only thing answered here is a
``Content-Length`` that cannot delimit the body or is larger than
:data:`MAX_BODY_BYTES`.

Example:
    >>> from repro.serve import PlannerService
    >>> from repro.serve.http import start_server
    >>> server = start_server(PlannerService(), host="127.0.0.1", port=0)
    >>> server.bound_port > 0
    True
    >>> server.shutdown(); server.server_close()
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import RequestError
from repro.serve.service import PlannerService

__all__ = ["MAX_BODY_BYTES", "PlannerHTTPServer", "start_server"]

#: Largest request body read; the read buffers the declared length at once.
MAX_BODY_BYTES = 16 * 1024 * 1024


class _PlannerRequestHandler(BaseHTTPRequestHandler):
    """Translate HTTP requests into service dispatches."""

    server: "PlannerHTTPServer"
    protocol_version = "HTTP/1.1"

    def _handle(self) -> None:
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not declared.isdecimal():
            error = RequestError(
                400,
                "bad_request",
                "Content-Length must be a non-negative integer, got "
                f"{declared!r}",
            )
        elif int(declared) > MAX_BODY_BYTES:
            error = RequestError(
                413,
                "payload_too_large",
                f"Content-Length {declared} exceeds the {MAX_BODY_BYTES}-byte "
                "request limit",
            )
        else:
            error = None
        if error is None:
            length = int(declared)
            raw = self.rfile.read(length) if length else b""
            status, payload = self.server.service.dispatch_raw(
                self.command, self.path, raw
            )
        else:
            # The body is left unread, so nothing after this request on the
            # connection can be parsed either.
            self.close_connection = True
            status, payload = error.response()
        if isinstance(payload, str):
            # /v1/metrics: the Prometheus text exposition, not JSON.
            data = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    # These five methods reach the service, which answers 404/405 itself;
    # any other (HEAD, OPTIONS, ...) gets http.server's 501 page.
    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _handle

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - log formatting only
            super().log_message(format, *args)


class PlannerHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`PlannerService`."""

    daemon_threads = True

    def __init__(
        self,
        service: PlannerService,
        host: str = "127.0.0.1",
        port: int = 8023,
        quiet: bool = True,
    ) -> None:
        self.service = service
        self.quiet = quiet
        super().__init__((host, port), _PlannerRequestHandler)

    @property
    def bound_port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        return self.server_address[1]


def start_server(
    service: PlannerService,
    host: str = "127.0.0.1",
    port: int = 8023,
    quiet: bool = True,
    background: bool = True,
) -> PlannerHTTPServer:
    """Bind a planner server; with ``background=True`` it serves on a thread.

    The caller owns shutdown: ``server.shutdown(); server.server_close()``.
    """
    server = PlannerHTTPServer(service, host=host, port=port, quiet=quiet)
    if background:
        thread = threading.Thread(
            target=server.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        server._thread = thread
    return server
