"""The planner service: every serve endpoint as transport-agnostic handlers.

:class:`PlannerService` is the single implementation behind the HTTP
frontend (:mod:`repro.serve.http`) and the in-process
:class:`~repro.serve.client.LocalClient`, so their responses are
byte-identical by construction.  A transport turns an HTTP request into
``dispatch(method, path, body)`` and writes back the ``(status, payload)``
it returns; nothing else lives in the transports.  The five compute
routes share one handler: it validates the body into the request type of
:mod:`repro.commands` and runs the same command ``python -m repro`` runs,
so the CLI and the API agree by construction too.

The service holds **one** :class:`~repro.core.session.Session`, optionally
bound to a persistent :class:`~repro.store.store.ExperimentStore` and an
execution backend.  Hot queries therefore answer straight from the store
with **zero simulations**; every compute response embeds a ``meta.request``
section with the per-request :class:`~repro.core.session.SessionStats`
delta (``simulations`` / ``store_hits`` / ``warm``) so that guarantee is
observable in the payload itself.

Error mapping (no endpoint ever leaks a raw traceback):

* ``422`` — request body fails validation against its request type
  (:func:`~repro.commands.from_mapping`: wrong JSON types, ``null`` on a
  field that is not optional, unknown fields; ``detail`` lists one
  ``{loc, msg, type}`` per problem), or an inline workload / fault-trace
  document does not parse;
* ``400`` — domain rejection: unknown strategy / policy / elastic policy /
  objective / driver / backend / preset (the body names the field and the
  registry's valid choices), bad fault specs, infeasible configurations;
* ``404`` / ``405`` — unknown path / wrong method;
* ``500`` — anything unexpected, reduced to a one-line message.

Documented in ``docs/SERVING.md``.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.analysis.store_report import request_warm_cold
from repro.commands import COMMANDS, from_mapping
from repro.core.session import Session
from repro.errors import ReproError, RequestError
from repro.obs.logs import bind_request_id, get_logger, new_request_id, request_id_var
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.store.backends import ExecutionBackend
from repro.store.store import ExperimentStore
from repro.version import __version__

#: ``(status, payload)``; the payload is a JSON-ready dict for every
#: endpoint except ``GET /v1/metrics``, whose payload is the Prometheus
#: text exposition as a plain string (transports render it text/plain).
Response = Tuple[int, Union[dict, str]]

_LOG = get_logger("serve")

#: ``POST /v1/<name>`` -> (request type, command) for every command of
#: :mod:`repro.commands`.
_COMPUTE: Dict[str, Tuple[type, Callable]] = {
    f"/v1/{name}": entry for name, entry in COMMANDS.items()
}


class PlannerService:
    """The planner-as-a-service application core (one session, many requests).

    Example:
        >>> from repro.serve.service import PlannerService
        >>> service = PlannerService()
        >>> status, payload = service.dispatch("GET", "/v1/healthz", None)
        >>> (status, payload["status"])
        (200, 'ok')
    """

    def __init__(
        self,
        store: Union[ExperimentStore, str, Path, None] = None,
        backend: Union[str, ExecutionBackend] = "inline",
    ) -> None:
        self.session = Session(store=store, backend=backend)
        # One writer at a time: the per-request SessionStats delta must not
        # interleave with another handler's work, and the simulator core is
        # CPU-bound pure python anyway.  The warm hot path holds this lock
        # for microseconds (a store point query), so concurrent warm clients
        # still see sub-millisecond service times.  Read-only endpoints
        # (liveness, metrics, store stats) are exempt: a liveness probe
        # must answer while a slow compute dispatch holds the lock, or the
        # orchestrator declares a healthy-but-busy process dead.
        self._lock = threading.Lock()
        self._read_only = {
            ("GET", "/v1/healthz"),
            ("GET", "/v1/metrics"),
            ("GET", "/v1/store/stats"),
        }
        self._started = time.monotonic()
        #: Completed dispatches (any status), reported by /v1/healthz.
        self._requests_served = 0
        self._routes: Dict[Tuple[str, str], Callable[[Optional[dict]], Response]] = {
            ("GET", "/v1/healthz"): self._healthz,
            ("GET", "/v1/metrics"): self._metrics,
            ("GET", "/v1/store/stats"): self._store_stats,
        }
        for path in _COMPUTE:
            self._routes[("POST", path)] = partial(self._compute, path)
        self._paths = tuple(dict.fromkeys(path for _, path in self._routes))
        registry = get_registry()
        self._in_flight = registry.gauge(
            "repro_http_in_flight", "requests currently being handled"
        ).labels()
        self._latency = registry.histogram(
            "repro_http_request_seconds", "request latency by endpoint"
        )
        self._requests = registry.counter(
            "repro_http_requests_total", "dispatched requests by endpoint and status"
        )
        self._temperature = registry.counter(
            "repro_http_warm_cold_total", "compute requests by cache temperature"
        )
        #: Bound children, memoised per label values on first use.
        self._children: Dict[tuple, Any] = {}

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def paths(self) -> Tuple[str, ...]:
        """Every route path, in registration order (healthz lists these)."""
        return self._paths

    def _child(self, family, **labels: str):
        """``family.labels(**labels)``, bound once per label set."""
        key = (family.name, *labels.values())
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = family.labels(**labels)
        return child

    def methods_for(self, path: str) -> Tuple[str, ...]:
        return tuple(method for method, route in self._routes if route == path)

    def dispatch(self, method: str, path: str, body: Optional[dict]) -> Response:
        """Route one request; every failure mode becomes a clean JSON body.

        Every dispatch — success or error — is measured: a per-endpoint
        latency histogram and status-labelled request counter, an
        in-flight gauge, a warm/cold counter for compute endpoints, and a
        process-unique ``request_id`` bound to the logging context and
        echoed (with ``duration_ms``) in the response's ``meta.request``.
        """
        path = path.partition("?")[0].rstrip("/") or "/"
        endpoint = path if path in self._paths else "unknown"
        request_id = new_request_id()
        token = bind_request_id(request_id)
        self._in_flight.inc()
        started = time.perf_counter()
        try:
            with span("serve.dispatch", endpoint=endpoint, method=method.upper()):
                status, payload = self._route(method, path, body)
        finally:
            self._in_flight.dec()
            request_id_var.reset(token)
        duration_s = time.perf_counter() - started
        self._child(self._latency, endpoint=endpoint).observe(duration_s)
        self._child(self._requests, endpoint=endpoint, status=str(status)).inc()
        if isinstance(payload, dict):
            request_meta = payload.get("meta", {}).get("request")
            if isinstance(request_meta, dict):
                request_meta["request_id"] = request_id
                request_meta["duration_ms"] = round(duration_s * 1e3, 3)
                self._child(
                    self._temperature,
                    endpoint=endpoint,
                    temperature="warm" if request_meta.get("warm") else "cold",
                ).inc()
        self._requests_served += 1
        if _LOG.isEnabledFor(logging.INFO):
            _LOG.info(
                "%s %s -> %d in %.1f ms",
                method.upper(),
                path,
                status,
                duration_s * 1e3,
                # The contextvar is already reset (the handler is done); carry
                # the id explicitly so the log line still cross-references.
                extra={
                    "endpoint": endpoint,
                    "status": status,
                    "duration_ms": round(duration_s * 1e3, 3),
                    "request_id": request_id,
                },
            )
        return status, payload

    def _route(self, method: str, path: str, body: Optional[dict]) -> Response:
        """The routing core dispatch() wraps with telemetry.

        The session lock is taken here, once, for every compute handler;
        routes in ``self._read_only`` run lock-free so liveness and
        metrics stay responsive while a long simulation is in flight.
        """
        key = (method.upper(), path)
        handler = self._routes.get(key)
        if handler is None:
            if path in self._paths:
                allowed = self.methods_for(path)
                return RequestError(
                    405,
                    "method_not_allowed",
                    f"{method.upper()} is not allowed on {path}; use "
                    f"{' or '.join(allowed)}",
                    choices=list(allowed),
                ).response()
            return RequestError(
                404,
                "not_found",
                f"unknown path {path!r}",
                choices=list(self.paths()),
            ).response()
        try:
            if key in self._read_only:
                return handler(body)
            with self._lock:
                return handler(body)
        except RequestError as error:
            return error.response()
        except ReproError as error:
            return RequestError(400, "domain", str(error)).response()
        except Exception as error:  # pragma: no cover - defensive safety net
            return RequestError(
                500, "internal", f"{type(error).__name__}: {error}"
            ).response()

    def dispatch_raw(self, method: str, path: str, raw: bytes) -> Response:
        """Dispatch with an undecoded body (the HTTP frontend's entry point)."""
        body: Optional[dict] = None
        if raw:
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as error:
                return RequestError(
                    400, "bad_json", f"request body is not valid JSON: {error}"
                ).response()
            if not isinstance(body, dict):
                return RequestError(
                    400,
                    "bad_json",
                    "request body must be a JSON object, got "
                    f"{type(body).__name__}",
                ).response()
        return self.dispatch(method, path, body)

    # ------------------------------------------------------------------ #
    # Meta plumbing
    # ------------------------------------------------------------------ #
    def _counters(self) -> Tuple[int, int, int]:
        """The session counters ``meta.request`` reports: runs, store hits, store builds."""
        stats = self.session.stats
        return stats.runs, stats.store_hits, stats.store_builds

    def _finish(self, endpoint: str, payload: dict, before: Tuple[int, int, int]) -> Response:
        """Attach the per-request warm/cold meta section and return 200.

        ``before`` holds :meth:`_counters` from before the request ran.
        """
        runs, store_hits, store_builds = self._counters()
        delta = {
            "runs": runs - before[0],
            "store_hits": store_hits - before[1],
            "store_builds": store_builds - before[2],
        }
        meta: Dict[str, Any] = {
            "endpoint": endpoint,
            "request": request_warm_cold(delta),
            "session": self.session.stats.to_dict(),
        }
        if self.session.store is not None:
            meta["store"] = self.session.store.disk_summary()
        payload["meta"] = meta
        return 200, payload

    # ------------------------------------------------------------------ #
    # Operability endpoints
    # ------------------------------------------------------------------ #
    def _healthz(self, _body: Optional[dict]) -> Response:
        store = self.session.store
        payload = {
            "status": "ok",
            "version": __version__,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "requests_served": self._requests_served,
            "has_store": store is not None,
            "store_root": str(store.root) if store is not None else None,
            "pregen": None,
            "backend": self.session.backend.name,
            "endpoints": list(self.paths()),
        }
        if store is not None:
            from repro.store.pregen import load_manifest

            try:
                manifest = load_manifest(store.root)
            except ReproError:
                # A corrupt manifest must not take /v1/healthz down with it;
                # the liveness probe reports the artifact as absent and
                # precompute (or cache gc) surfaces the real error.
                manifest = None
            if manifest is not None:
                payload["pregen"] = {
                    "grid": manifest.grid.name,
                    "grid_hash": manifest.grid_hash,
                    "row_count": manifest.row_count,
                    "complete": manifest.complete,
                    "version": manifest.version,
                }
        return 200, payload

    def _metrics(self, _body: Optional[dict]) -> Response:
        """The process-wide registry in Prometheus text exposition format."""
        return 200, get_registry().render_prometheus()

    def _store_stats(self, _body: Optional[dict]) -> Response:
        store = self.session.store
        if store is None:
            return 200, {
                "has_store": False,
                "session": self.session.stats.to_dict(),
            }
        overview = store.overview()
        return 200, {
            "has_store": True,
            "root": overview["root"],
            "stats": overview["stats"],
            "records_by_kind": overview["records_by_kind"],
            "session": self.session.stats.to_dict(),
        }

    # ------------------------------------------------------------------ #
    # Compute endpoints
    # ------------------------------------------------------------------ #
    def _compute(self, path: str, body: Optional[dict]) -> Response:
        """Validate a body into its request type and run the command."""
        request_type, command = _COMPUTE[path]
        request = from_mapping(request_type, {} if body is None else body)
        before = self._counters()
        payload, _ = command(self.session, request)
        return self._finish(path, payload, before)
