"""Typed response envelopes for the planner-as-a-service API.

The request types live in :mod:`repro.commands`, shared with the CLI, as
pydantic-free dataclasses; the service validates each ``POST`` body into
one.  The models below type the *responses*: :func:`response_model_for`
lets tests check that the plain-dict payloads the service emits conform.
The service itself returns plain dicts, so the deterministic sections
round-trip the existing ``to_dict`` payloads byte-for-byte instead of
being re-serialised by a model.

Documented in ``docs/SERVING.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from pydantic import BaseModel

__all__ = [
    "RequestWarmCold",
    "ResponseMeta",
    "ErrorBody",
    "ErrorResponse",
    "HealthResponse",
    "StoreStatsResponse",
    "PlanResponse",
    "SweepResponse",
    "ClusterResponse",
    "TuneResponse",
    "PrecomputeResponse",
    "response_model_for",
]


# ---------------------------------------------------------------------- #
# Response envelopes
# ---------------------------------------------------------------------- #
class RequestWarmCold(BaseModel):
    """Per-request hydration accounting (``meta.request``).

    ``simulations`` is the number of discrete-event simulations this one
    request caused; ``warm`` is true when it caused none — the observable
    form of the "second identical query performs zero simulations"
    guarantee.  ``request_id`` / ``duration_ms`` are stamped by the
    dispatch telemetry wrapper and cross-reference the server's
    structured log lines and ``/v1/metrics`` histograms.
    """

    simulations: int
    store_hits: int
    store_builds: int
    warm: bool
    request_id: str
    duration_ms: float


class ResponseMeta(BaseModel):
    """The ``meta`` section every successful compute response carries."""

    endpoint: str
    request: RequestWarmCold
    session: Dict[str, int]
    store: Optional[Dict[str, Any]] = None


class ErrorBody(BaseModel):
    """The ``error`` object of every non-2xx response."""

    status: int
    type: str
    message: str
    field: Optional[str] = None
    value: Optional[Any] = None
    choices: Optional[List[Any]] = None
    detail: Optional[List[Dict[str, Any]]] = None


class ErrorResponse(BaseModel):
    error: ErrorBody


class PregenInfo(BaseModel):
    """Pregen-artifact facts surfaced by ``/v1/healthz`` when booted
    against a manifest-stamped store."""

    grid: str
    grid_hash: str
    row_count: int
    complete: bool
    version: str


class HealthResponse(BaseModel):
    status: str
    version: str
    uptime_s: float
    requests_served: int
    has_store: bool
    store_root: Optional[str] = None
    pregen: Optional[PregenInfo] = None
    backend: str
    endpoints: List[str]


class StoreStatsResponse(BaseModel):
    has_store: bool
    root: Optional[str] = None
    stats: Optional[Dict[str, Any]] = None
    records_by_kind: Optional[Dict[str, int]] = None
    session: Dict[str, int]


class PlanResponse(BaseModel):
    config: Dict[str, Any]
    result: Dict[str, Any]
    meta: ResponseMeta


class SweepResponse(BaseModel):
    base_config: Dict[str, Any]
    strategies: List[str]
    axes: Dict[str, List[Any]]
    cells: List[Dict[str, Any]]
    meta: ResponseMeta


class ClusterResponse(BaseModel):
    cluster: Dict[str, Any]
    workload: str
    reports: Dict[str, Dict[str, Any]]
    faults: Optional[Dict[str, Any]] = None
    tenants: Optional[List[Dict[str, Any]]] = None
    price_curve: Optional[str] = None
    meta: ResponseMeta


class TuneResponse(BaseModel):
    objective: Dict[str, Any]
    driver: str
    budget: int
    space: Dict[str, Any]
    best: Dict[str, Any]
    frontier: List[Dict[str, Any]]
    measurements: List[Dict[str, Any]]
    trajectory: List[Dict[str, Any]]
    notes: Dict[str, Any]
    evaluator_stats: Dict[str, Any]
    session_stats: Dict[str, Any]
    meta: ResponseMeta


class PrecomputeResponse(BaseModel):
    spec: Dict[str, Any]
    cells: int
    grid_size: int
    simulated: int
    hydrated: int
    store: Dict[str, Any]
    meta: ResponseMeta


_RESPONSE_MODELS: Dict[str, type] = {
    "/v1/healthz": HealthResponse,
    "/v1/store/stats": StoreStatsResponse,
    "/v1/plan": PlanResponse,
    "/v1/sweep": SweepResponse,
    "/v1/cluster": ClusterResponse,
    "/v1/tune": TuneResponse,
    "/v1/precompute": PrecomputeResponse,
}


def response_model_for(path: str) -> type:
    """The typed envelope of one route's 2xx payload (tests validate with it)."""
    return _RESPONSE_MODELS[path]
