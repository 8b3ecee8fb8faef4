"""The planner service: every serve endpoint as transport-agnostic handlers.

:class:`PlannerService` is the single implementation behind all three
frontends — the FastAPI app (:func:`repro.serve.app.create_app`), the
stdlib fallback server (:mod:`repro.serve.http`) and the in-process
:class:`~repro.serve.client.LocalClient` — so their responses are
byte-identical by construction.  A transport turns an HTTP request into
``dispatch(method, path, body)`` and writes back the ``(status, payload)``
it returns; nothing else lives in the transports.

The service holds **one** :class:`~repro.core.session.Session`, optionally
bound to a persistent :class:`~repro.store.store.ExperimentStore` and an
execution backend.  Hot queries therefore answer straight from the store
with **zero simulations**; every compute response embeds a ``meta.request``
section with the per-request :class:`~repro.core.session.SessionStats`
delta (``simulations`` / ``store_hits`` / ``warm``) so that guarantee is
observable in the payload itself.

Error mapping (no endpoint ever leaks a raw traceback):

* ``422`` — request body fails pydantic validation, or an inline
  workload / fault-trace document does not parse;
* ``400`` — domain rejection: unknown strategy / policy / elastic policy /
  objective / driver / backend / preset (the body names the field and the
  registry's valid choices), bad fault specs, infeasible configurations;
* ``404`` / ``405`` — unknown path / wrong method;
* ``500`` — anything unexpected, reduced to a one-line message.

Documented in ``docs/SERVING.md``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from pydantic import ValidationError

from repro.analysis.store_report import request_warm_cold
from repro.cluster.elastic import ELASTIC_POLICIES
from repro.cluster.faults import FAULT_PRESETS, FaultTrace, parse_fault_spec
from repro.cluster.scheduler import POLICIES
from repro.cluster.spec import cluster_from_shorthand, default_cluster
from repro.cluster.market import PRICE_CURVES, parse_price_curve
from repro.cluster.simulator import run_policy_comparison
from repro.cluster.workload import (
    DEFAULT_MIX,
    Workload,
    arrival_process,
    parse_tenant_shorthand,
    tenant_workload,
)
from repro.core.config import (
    ExperimentConfig,
    VALID_DATASETS,
    VALID_SERVERS,
    VALID_TASKS,
)
from repro.core.session import Session
from repro.errors import ReproError
from repro.obs.logs import bind_request_id, get_logger, new_request_id, request_id_var
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.parallel.registry import REGISTRY
from repro.serve.schemas import (
    ClusterRequest,
    PlanRequest,
    PrecomputeRequest,
    REQUEST_MODELS,
    SweepRequest,
    TuneRequest,
)
from repro.store.backends import BACKENDS, ExecutionBackend
from repro.store.store import ExperimentStore
from repro.version import __version__

#: ``(status, payload)``; the payload is a JSON-ready dict for every
#: endpoint except ``GET /v1/metrics``, whose payload is the Prometheus
#: text exposition as a plain string (transports render it text/plain).
Response = Tuple[int, Union[dict, str]]

_LOG = get_logger("serve")

#: Arrival-process kinds ``/v1/cluster`` generates (mirrors the CLI choices).
ARRIVAL_KINDS = ("poisson", "bursty", "diurnal")


class ServeError(ReproError):
    """A domain error with a definite HTTP status and structured body."""

    def __init__(
        self,
        status: int,
        type: str,
        message: str,
        **extra: Any,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.body = {"status": status, "type": type, "message": message}
        for key, value in extra.items():
            if value is not None:
                self.body[key] = value

    def response(self) -> Response:
        return self.status, {"error": self.body}


def _unknown_choice(field: str, value: Any, choices) -> ServeError:
    return ServeError(
        400,
        "unknown_choice",
        f"unknown {field} {value!r}; valid choices: {list(choices)}",
        field=field,
        value=value,
        choices=list(choices),
    )


def _check_choice(field: str, value: Optional[str], choices) -> None:
    if value is not None and value not in choices:
        raise _unknown_choice(field, value, choices)


def _check_choices(field: str, values, choices) -> None:
    for value in values or ():
        _check_choice(field, value, choices)


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
        if isinstance(backend, str):
            _check_choice("backend", backend, BACKENDS.names())
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
            ("POST", "/v1/plan"): self._plan,
            ("POST", "/v1/sweep"): self._sweep,
            ("POST", "/v1/cluster"): self._cluster,
            ("POST", "/v1/tune"): self._tune,
            ("POST", "/v1/precompute"): self._precompute,
        }

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def paths(self) -> Tuple[str, ...]:
        """Every route path, in registration order (healthz lists these)."""
        seen: Dict[str, None] = {}
        for _, path in self._routes:
            seen.setdefault(path)
        return tuple(seen)

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
        endpoint = path if path in self.paths() else "unknown"
        registry = get_registry()
        request_id = new_request_id()
        token = bind_request_id(request_id)
        in_flight = registry.gauge(
            "repro_http_in_flight", "requests currently being handled"
        )
        in_flight.inc()
        started = time.perf_counter()
        try:
            with span("serve.dispatch", endpoint=endpoint, method=method.upper()):
                status, payload = self._route(method, path, body)
        finally:
            in_flight.dec()
            request_id_var.reset(token)
        duration_s = time.perf_counter() - started
        registry.histogram(
            "repro_http_request_seconds", "request latency by endpoint"
        ).observe(duration_s, endpoint=endpoint)
        registry.counter(
            "repro_http_requests_total", "dispatched requests by endpoint and status"
        ).inc(endpoint=endpoint, status=str(status))
        if isinstance(payload, dict):
            request_meta = payload.get("meta", {}).get("request")
            if isinstance(request_meta, dict):
                request_meta["request_id"] = request_id
                request_meta["duration_ms"] = round(duration_s * 1e3, 3)
                registry.counter(
                    "repro_http_warm_cold_total",
                    "compute requests by cache temperature",
                ).inc(
                    endpoint=endpoint,
                    temperature="warm" if request_meta.get("warm") else "cold",
                )
        self._requests_served += 1
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
            if path in self.paths():
                allowed = self.methods_for(path)
                return ServeError(
                    405,
                    "method_not_allowed",
                    f"{method.upper()} is not allowed on {path}; use "
                    f"{' or '.join(allowed)}",
                    choices=list(allowed),
                ).response()
            return ServeError(
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
        except ValidationError as error:
            return ServeError(
                422,
                "validation",
                f"request body for {path} failed validation",
                detail=json.loads(
                    json.dumps(error.errors(include_url=False), default=str)
                ),
            ).response()
        except ServeError as error:
            return error.response()
        except ReproError as error:
            return ServeError(400, "domain", str(error)).response()
        except Exception as error:  # pragma: no cover - defensive safety net
            return ServeError(
                500, "internal", f"{type(error).__name__}: {error}"
            ).response()

    def dispatch_raw(self, method: str, path: str, raw: bytes) -> Response:
        """Dispatch with an undecoded body (the HTTP transports' entry point)."""
        body: Optional[dict] = None
        if raw:
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as error:
                return ServeError(
                    400, "bad_json", f"request body is not valid JSON: {error}"
                ).response()
            if not isinstance(body, dict):
                return ServeError(
                    400,
                    "bad_json",
                    "request body must be a JSON object, got "
                    f"{type(body).__name__}",
                ).response()
        return self.dispatch(method, path, body)

    # ------------------------------------------------------------------ #
    # Meta plumbing
    # ------------------------------------------------------------------ #
    def _finish(self, endpoint: str, payload: dict, before: dict) -> Response:
        """Attach the per-request warm/cold meta section and return 200."""
        delta = self.session.stats.delta(before)
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
                # the liveness probe reports the artifact as absent and the
                # pregen CLI surfaces the real error.
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
    def _plan(self, body: Optional[dict]) -> Response:
        request = PlanRequest.model_validate(body or {})
        _check_choice("task", request.task, VALID_TASKS)
        _check_choice("dataset", request.dataset, VALID_DATASETS)
        _check_choice("server", request.server, VALID_SERVERS)
        _check_choice("strategy", request.strategy, REGISTRY.names())
        config = ExperimentConfig(
            task=request.task,
            dataset=request.dataset,
            server=request.server,
            num_gpus=request.num_gpus,
            batch_size=request.batch_size,
            strategy=request.strategy,
            simulated_steps=request.steps,
        )
        before = self.session.stats.snapshot()
        result = self.session.run(config)
        payload = {"config": config.to_dict(), "result": result.to_dict()}
        return self._finish("/v1/plan", payload, before)

    def _sweep(self, body: Optional[dict]) -> Response:
        request = SweepRequest.model_validate(body or {})
        _check_choices("task", [request.task] + (request.tasks or []), VALID_TASKS)
        _check_choices(
            "dataset", [request.dataset] + (request.datasets or []), VALID_DATASETS
        )
        _check_choices(
            "server", [request.server] + (request.servers or []), VALID_SERVERS
        )
        _check_choices("strategy", request.strategies, REGISTRY.names())
        _check_choice("backend", request.backend, BACKENDS.names())
        base = ExperimentConfig(
            task=request.task,
            dataset=request.dataset,
            server=request.server,
            num_gpus=request.num_gpus,
            batch_size=request.batch_size,
            simulated_steps=request.steps,
        )
        before = self.session.stats.snapshot()
        sweep = self.session.sweep(
            base,
            batch_sizes=request.batch_sizes,
            num_gpus=request.gpu_counts,
            datasets=request.datasets,
            servers=request.servers,
            tasks=request.tasks,
            strategies=request.strategies,
            backend=request.backend,
        )
        return self._finish("/v1/sweep", sweep.to_dict(), before)

    def _resolve_faults(self, request) -> Union[FaultTrace, object, None]:
        """Coerce a request's fault fields to a fault source (or None)."""
        if request.faults and request.fault_trace:
            raise ServeError(
                400,
                "domain",
                "'faults' and 'fault_trace' are mutually exclusive; pass a "
                "generator spec or an inline trace, not both",
            )
        if request.fault_trace is not None:
            try:
                return FaultTrace.from_dict(request.fault_trace)
            except ReproError:
                raise
            except (KeyError, TypeError, ValueError) as error:
                raise ServeError(
                    422,
                    "malformed_document",
                    f"inline fault trace does not parse: {error}; expected "
                    "the JSON shape FaultTrace.save() writes",
                    field="fault_trace",
                ) from error
        if request.faults:
            try:
                return parse_fault_spec(request.faults)
            except ReproError as error:
                raise ServeError(
                    400,
                    "bad_fault_spec",
                    str(error),
                    field="faults",
                    value=request.faults,
                    choices=sorted(FAULT_PRESETS),
                ) from error
        return None

    def _cluster(self, body: Optional[dict]) -> Response:
        request = ClusterRequest.model_validate(body or {})
        if request.policy != "all":
            _check_choice("policy", request.policy, POLICIES.names())
        _check_choice("elastic", request.elastic, ELASTIC_POLICIES.names())
        _check_choice("arrival", request.arrival, ARRIVAL_KINDS)
        cluster = (
            cluster_from_shorthand(request.nodes) if request.nodes else default_cluster()
        )
        if request.tenants and request.workload is not None:
            raise ServeError(
                400,
                "domain",
                "'tenants' and 'workload' are mutually exclusive; inline "
                "workload documents carry their own tenant roster",
                field="tenants",
            )
        try:
            price_curve = parse_price_curve(request.price_curve)
        except ReproError as error:
            raise ServeError(
                400,
                "bad_price_curve",
                str(error),
                field="price_curve",
                value=request.price_curve,
                choices=sorted(PRICE_CURVES),
            ) from error
        if request.workload is not None:
            try:
                workload = Workload.from_dict(request.workload)
            except ReproError:
                raise
            except (KeyError, TypeError, ValueError) as error:
                raise ServeError(
                    422,
                    "malformed_document",
                    f"inline workload does not parse: {error}; expected the "
                    "JSON shape Workload.save() writes",
                    field="workload",
                ) from error
        elif request.tenants:
            workload = tenant_workload(
                parse_tenant_shorthand(request.tenants),
                request.num_jobs,
                rate=request.rate,
                seed=request.seed,
                deadline_slack=request.deadline_slack,
                diurnal=request.arrival == "diurnal",
            )
        else:
            workload = arrival_process(
                request.arrival,
                request.num_jobs,
                rate=request.rate,
                burst_size=request.burst_size,
                burst_gap=request.burst_gap,
                seed=request.seed,
                mix=DEFAULT_MIX,
            )
        faults = self._resolve_faults(request)
        policies = (
            tuple(POLICIES.names()) if request.policy == "all" else (request.policy,)
        )
        before = self.session.stats.snapshot()
        reports = run_policy_comparison(
            cluster,
            workload,
            policies=policies,
            session=self.session,
            faults=faults,
            elastic=request.elastic,
            fault_seed=request.fault_seed,
            price_curve=price_curve,
        )
        payload: Dict[str, Any] = {
            "cluster": cluster.to_dict(),
            "workload": workload.name,
            "reports": {name: report.to_dict() for name, report in reports.items()},
        }
        if workload.tenants:
            payload["tenants"] = [spec.to_dict() for spec in workload.tenants]
        if price_curve is not None:
            payload["price_curve"] = price_curve.name
        if faults is not None:
            payload["faults"] = {
                "spec": (
                    {"trace": faults.name}
                    if isinstance(faults, FaultTrace)
                    else faults.to_dict()
                ),
                "elastic": request.elastic,
                "seed": request.fault_seed,
            }
        return self._finish("/v1/cluster", payload, before)

    def _tune(self, body: Optional[dict]) -> Response:
        from repro.tune.drivers import DRIVERS
        from repro.tune.objective import MinCostUnderDeadline, OBJECTIVES
        from repro.tune.space import TuneSpace, default_space

        request = TuneRequest.model_validate(body or {})
        _check_choice("objective", request.objective, OBJECTIVES.names())
        _check_choice("driver", request.driver, DRIVERS.names())
        _check_choices("strategy", request.strategies, REGISTRY.names())
        _check_choices("server", request.servers, VALID_SERVERS)
        _check_choices("task", request.tasks, VALID_TASKS)
        _check_choices("dataset", request.datasets, VALID_DATASETS)
        _check_choices("policy", request.policies, POLICIES.names())
        _check_choice("elastic", request.elastic, ELASTIC_POLICIES.names())
        if request.deadline is not None and request.objective != "cost":
            raise ServeError(
                400,
                "domain",
                f"'deadline' only applies to the 'cost' objective, not "
                f"{request.objective!r}; drop the field or use objective='cost'",
                field="deadline",
            )
        base = default_space()
        clusters = (cluster_from_shorthand(request.nodes),) if request.nodes else ()
        space = TuneSpace(
            strategies=tuple(request.strategies) if request.strategies else base.strategies,
            batch_sizes=tuple(request.batch_sizes) if request.batch_sizes else base.batch_sizes,
            gpu_counts=tuple(request.gpu_counts) if request.gpu_counts else base.gpu_counts,
            servers=tuple(request.servers) if request.servers else base.servers,
            tasks=tuple(request.tasks) if request.tasks else base.tasks,
            datasets=tuple(request.datasets) if request.datasets else base.datasets,
            policies=tuple(request.policies) if request.policies else (),
            clusters=clusters,
        )
        objective = (
            MinCostUnderDeadline(deadline=request.deadline)
            if request.deadline is not None
            else request.objective
        )
        before = self.session.stats.snapshot()
        result = self.session.tune(
            space,
            objective=objective,
            driver=request.driver,
            budget=request.budget,
            seed=request.seed,
            simulated_steps=request.steps,
            faults=self._resolve_faults(request),
            elastic=request.elastic,
            fault_seed=request.fault_seed,
            tenants=request.tenants,
            price_curve=request.price_curve,
            slo_deadline_slack=(
                request.deadline_slack if request.deadline_slack is not None else 900.0
            ),
        )
        return self._finish("/v1/tune", result.to_dict(), before)

    def _precompute(self, body: Optional[dict]) -> Response:
        request = PrecomputeRequest.model_validate(body or {})
        if self.session.store is None:
            raise ServeError(
                400,
                "no_store",
                "precompute warms the shared experiment store, but this "
                "service has none; start it with --store PATH (or "
                "REPRO_STORE)",
            )
        _check_choices("task", request.tasks, VALID_TASKS)
        _check_choices("dataset", request.datasets, VALID_DATASETS)
        _check_choices("server", request.servers, VALID_SERVERS)
        strategies = (
            list(request.strategies)
            if request.strategies
            else list(REGISTRY.names())
        )
        _check_choices("strategy", strategies, REGISTRY.names())
        _check_choice("backend", request.backend, BACKENDS.names())
        for field in ("tasks", "datasets", "servers", "gpu_counts", "batch_sizes"):
            if not getattr(request, field):
                raise ServeError(
                    400,
                    "domain",
                    f"precompute grid axis {field!r} must be non-empty",
                    field=field,
                )
        base = ExperimentConfig(
            task=request.tasks[0],
            dataset=request.datasets[0],
            server=request.servers[0],
            num_gpus=request.gpu_counts[0],
            batch_size=request.batch_sizes[0],
            strategy=strategies[0],
            simulated_steps=request.steps,
        )
        before = self.session.stats.snapshot()
        sweep = self.session.sweep(
            base,
            batch_sizes=request.batch_sizes,
            num_gpus=request.gpu_counts,
            datasets=request.datasets,
            servers=request.servers,
            tasks=request.tasks,
            strategies=strategies,
            backend=request.backend,
        )
        delta = self.session.stats.delta(before)
        payload = {
            "spec": request.model_dump(),
            "cells": len(sweep.cells),
            "grid_size": len(sweep.cells) * len(sweep.strategies),
            "simulated": delta["runs"],
            "hydrated": delta["store_hits"],
            "store": self.session.store.disk_summary(),
        }
        return self._finish("/v1/precompute", payload, before)
