"""Typed request/response models for the planner-as-a-service API.

Every ``POST`` endpoint of :mod:`repro.serve.service` validates its JSON
body through one of the pydantic models below before any domain code
runs.  The split of responsibilities is deliberate:

* **shape** errors — wrong types, unknown fields, missing documents — are
  caught here and surface as HTTP **422** with pydantic's error detail;
* **domain** errors — unknown strategies/policies/objectives/presets,
  infeasible configurations — are left to the registries and
  :class:`~repro.core.config.ExperimentConfig` and surface as HTTP
  **400** with the registry's valid choices.

Request models mirror the ``python -m repro`` CLI flags one-to-one
(``PlanRequest`` ≙ ``repro run``, ``SweepRequest`` ≙ ``repro sweep``, …),
so a serve payload and a CLI invocation with identical inputs produce
byte-identical deterministic sections (asserted in
``tests/serve/test_parity.py``).  Response *envelopes* are typed too —
:func:`response_model_for` lets tests validate that the plain-dict payloads
the service emits conform — but the service returns plain dicts so the
deterministic sections round-trip the existing ``to_dict`` payloads
byte-for-byte instead of being re-serialised by a model.

Documented in ``docs/SERVING.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from pydantic import BaseModel, ConfigDict, Field

__all__ = [
    "PlanRequest",
    "SweepRequest",
    "ClusterRequest",
    "TuneRequest",
    "PrecomputeRequest",
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
    "REQUEST_MODELS",
    "response_model_for",
]


class _StrictModel(BaseModel):
    """Base for request bodies: unknown fields are a 422, not a silent no-op."""

    model_config = ConfigDict(extra="forbid")


class PlanRequest(_StrictModel):
    """One experiment cell — the body of ``POST /v1/plan`` (≙ ``repro run``)."""

    task: str = "nas"
    dataset: str = "cifar10"
    server: str = "a6000"
    num_gpus: int = 4
    batch_size: int = 256
    strategy: str = "TR+DPU+AHD"
    steps: int = 10


class SweepRequest(_StrictModel):
    """A grid of cells — the body of ``POST /v1/sweep`` (≙ ``repro sweep``).

    Scalar fields seed the base config; each list field, when given, becomes
    a sweep axis (the grid is the cartesian product, exactly as the CLI).
    """

    task: str = "nas"
    dataset: str = "cifar10"
    server: str = "a6000"
    num_gpus: int = 4
    batch_size: int = 256
    steps: int = 10
    batch_sizes: Optional[List[int]] = None
    gpu_counts: Optional[List[int]] = None
    datasets: Optional[List[str]] = None
    servers: Optional[List[str]] = None
    tasks: Optional[List[str]] = None
    strategies: Optional[List[str]] = None
    backend: Optional[str] = None


class ClusterRequest(_StrictModel):
    """A fleet replay — the body of ``POST /v1/cluster`` (≙ ``repro cluster``).

    ``workload`` / ``fault_trace`` accept *inline* JSON documents of the
    shapes ``Workload.save`` / ``FaultTrace.save`` write — the HTTP API has
    no filesystem, so traces travel in the request body.
    """

    nodes: Optional[str] = None
    policy: str = "all"
    num_jobs: int = 200
    arrival: str = "poisson"
    rate: float = 0.5
    burst_size: int = 8
    burst_gap: float = 120.0
    seed: int = 0
    workload: Optional[Dict[str, Any]] = None
    faults: Optional[str] = None
    fault_trace: Optional[Dict[str, Any]] = None
    elastic: str = "restart"
    fault_seed: int = 0
    #: Tenant roster shorthand (``"name:k=v,...;..."``); generates a
    #: multi-tenant workload.  Mutually exclusive with ``workload`` —
    #: inline workload documents carry their own tenant roster.
    tenants: Optional[str] = None
    #: Spot-market price curve: a preset name or ``"t:mult,...[@period]"``.
    price_curve: Optional[str] = None
    #: Seconds past arrival that deadline tenants' jobs must finish by.
    deadline_slack: float = 900.0


class TuneRequest(_StrictModel):
    """An autotuning run — the body of ``POST /v1/tune`` (≙ ``repro tune``)."""

    objective: str = "epoch_time"
    driver: str = "successive-halving"
    budget: int = 64
    seed: int = 0
    steps: int = 10
    strategies: Optional[List[str]] = None
    batch_sizes: Optional[List[int]] = None
    gpu_counts: Optional[List[int]] = None
    servers: Optional[List[str]] = None
    tasks: Optional[List[str]] = None
    datasets: Optional[List[str]] = None
    policies: Optional[List[str]] = None
    nodes: Optional[str] = None
    deadline: Optional[float] = None
    faults: Optional[str] = None
    fault_trace: Optional[Dict[str, Any]] = None
    elastic: str = "restart"
    fault_seed: int = 0
    #: Tenant roster for the SLO objectives' contended probe (shorthand).
    tenants: Optional[str] = None
    #: Price curve metering the probe's GPU-seconds (preset or spec).
    price_curve: Optional[str] = None
    #: Deadline slack for the probe's deadline tenants, in seconds.
    deadline_slack: Optional[float] = None


class PrecomputeRequest(_StrictModel):
    """A warming grid — the body of ``POST /v1/precompute``.

    The grid is the cartesian product of every axis crossed with every
    strategy; the service drives it through the session's execution
    backend and writes every fresh simulation through the shared store, so
    subsequent ``/v1/plan`` / ``/v1/sweep`` / ``/v1/tune`` queries covering
    these cells answer with zero simulations.
    """

    tasks: List[str] = Field(default_factory=lambda: ["nas"])
    datasets: List[str] = Field(default_factory=lambda: ["cifar10"])
    servers: List[str] = Field(default_factory=lambda: ["a6000"])
    gpu_counts: List[int] = Field(default_factory=lambda: [4])
    batch_sizes: List[int] = Field(default_factory=lambda: [256])
    strategies: Optional[List[str]] = None
    steps: int = 10
    backend: Optional[str] = None


#: Request model per POST route, used by the service dispatcher.
REQUEST_MODELS: Dict[str, type] = {
    "/v1/plan": PlanRequest,
    "/v1/sweep": SweepRequest,
    "/v1/cluster": ClusterRequest,
    "/v1/tune": TuneRequest,
    "/v1/precompute": PrecomputeRequest,
}


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
