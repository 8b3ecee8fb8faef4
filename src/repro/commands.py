"""The request layer: the request types and the code that runs them.

Both frontends speak through this module.  ``python -m repro run|sweep|
cluster|tune|precompute`` builds a request from its flags
(:func:`repro.cli.add_request_arguments` generates the flags from the
fields below), and the HTTP service validates a JSON body into the same
type.  Either way one function here turns the request into the
:class:`~repro.core.config.ExperimentConfig` / :meth:`Session.sweep` /
fleet / :class:`~repro.tune.space.TuneSpace` / pregen grid calls and returns the
deterministic payload, so a CLI invocation and an HTTP request with equal
inputs give byte-identical payloads by construction.  The frontends add
only their bookkeeping: the CLI appends ``session_stats`` / ``warm_cold``
/ ``store``, the service appends ``meta``.

The request types are frozen stdlib dataclasses, and :func:`from_mapping`
checks a JSON body against their field types with the standard library
alone.  Field defaults are the CLI defaults; ``None`` means "use the
default" and every other value is passed through, so an empty axis is an
error rather than a silent default.  Each field's ``metadata`` holds its
CLI ``help`` text and, where the CLI restricts a flag, its argparse
``choices``; either may be a zero-argument callable, so that the registry
names they list are looked up when the parser is built, not on import.
The cluster and tune layers are imported only by the commands that use
them.

Every rejection is a :class:`~repro.errors.RequestError` carrying an HTTP
status (400 for a domain rejection, 422 for a body of the wrong shape or
an inline document that does not parse) and a structured body naming the
field, the bad value and the valid choices; the CLI prints its message
and exits 2.

Documented in ``docs/SERVING.md`` and ``docs/API.md``.
"""

import dataclasses
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    TYPE_CHECKING,
    Tuple,
    Union,
    get_args,
    get_origin,
)

from repro.core.config import (
    ExperimentConfig,
    VALID_DATASETS,
    VALID_SERVERS,
    VALID_TASKS,
)
from repro.core.session import Session
from repro.errors import ReproError, RequestError
from repro.parallel.registry import REGISTRY
from repro.store.backends import BACKENDS
from repro.store.pregen import GRIDS, GridSpec, run_pregen

if TYPE_CHECKING:  # pragma: no cover - typing only; the commands import lazily
    from repro.cluster.faults import FaultTrace
    from repro.cluster.market import PriceCurve
    from repro.cluster.workload import Workload

__all__ = [
    "ARRIVAL_KINDS",
    "COMMANDS",
    "ClusterRequest",
    "PlanRequest",
    "PrecomputeRequest",
    "SweepRequest",
    "TuneRequest",
    "check_exclusive",
    "cluster",
    "from_mapping",
    "make_workload",
    "plan",
    "precompute",
    "sweep",
    "tune",
]

#: Arrival-process kinds a cluster request generates.
ARRIVAL_KINDS = ("poisson", "bursty", "diurnal")


def _cluster_names(name: str) -> str:
    """A comma list of one ``repro.cluster`` registry's names (imports the layer)."""
    import repro.cluster

    names = getattr(repro.cluster, name)
    return ", ".join(sorted(names) if isinstance(names, dict) else names.names())


def _objective_names() -> Tuple[str, ...]:
    from repro.tune.objective import OBJECTIVES

    return OBJECTIVES.names()


def _driver_names() -> Tuple[str, ...]:
    from repro.tune.drivers import DRIVERS

    return DRIVERS.names()


def _arg(
    default: Any = None, help: Union[str, Callable[[], str], None] = None, choices=None
) -> Any:
    """A request field with its CLI help text and argparse choices."""
    metadata = {"help": help, "choices": choices}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=metadata)
    return field(default=default, metadata=metadata)


_COMMA = "comma list"


@dataclass(frozen=True)
class _Cell:
    """The experiment-cell fields of plan and sweep requests."""

    task: str = _arg("nas", choices=VALID_TASKS)
    dataset: str = _arg("cifar10", choices=VALID_DATASETS)
    server: str = _arg("a6000", choices=VALID_SERVERS)
    num_gpus: int = _arg(4)
    batch_size: int = _arg(256)
    steps: int = _arg(10, help="simulated steps")


@dataclass(frozen=True)
class PlanRequest(_Cell):
    """One experiment cell: ``repro run`` and ``POST /v1/plan``."""

    strategy: str = _arg("TR+DPU+AHD")


@dataclass(frozen=True)
class SweepRequest(_Cell):
    """A grid of cells: ``repro sweep`` and ``POST /v1/sweep``.

    Scalar fields seed the base config; each list field, when given,
    becomes a sweep axis (the grid is the cartesian product).
    """

    batch_sizes: Optional[List[int]] = _arg(help=f"{_COMMA}, e.g. 128,256")
    gpu_counts: Optional[List[int]] = _arg(help=f"{_COMMA}, e.g. 2,4")
    datasets: Optional[List[str]] = _arg(help=_COMMA)
    servers: Optional[List[str]] = _arg(help=_COMMA)
    tasks: Optional[List[str]] = _arg(help=_COMMA)
    strategies: Optional[List[str]] = _arg(help=f"{_COMMA}, e.g. DP,TR+DPU+AHD")
    backend: Optional[str] = _arg(
        help="execution backend for sweep cells (default: inline)",
        choices=BACKENDS.names,
    )


@dataclass(frozen=True)
class _Contention:
    """The tenant, price and fault fields of cluster and tune requests.

    ``fault_trace`` (and a cluster request's ``workload``) is a JSON
    document of the shape ``FaultTrace.save`` (``Workload.save``) writes:
    an HTTP body carries it inline, the CLI reads it from the file its
    flag names.
    """

    tenants: Optional[str] = _arg(
        help="tenant roster shorthand 'name:k=v,...;...' with k in "
        "priority/quota/budget/deadline/rate/slack, e.g. "
        "'batch:rate=0.4;prod:priority=2,deadline=strict,rate=0.1'"
    )
    price_curve: Optional[str] = _arg(
        help=lambda: "spot-market price curve: a preset "
        f"({_cluster_names('PRICE_CURVES')}) or 't:mult,...[@period]'"
    )
    deadline_slack: float = _arg(
        900.0,
        help="seconds past arrival that deadline tenants' jobs must finish by "
        "(default: 900)",
    )
    faults: Optional[str] = _arg(
        help=lambda: f"inject faults: a preset ({_cluster_names('FAULT_PRESETS')}) "
        "or 'kind:rate[,...]' with kind in crash/preempt/straggler (rates in "
        "events/sec)"
    )
    fault_trace: Optional[Dict[str, Any]] = _arg(
        help="replay a JSON fault trace instead of generating"
    )
    elastic: str = _arg(
        "restart",
        help=lambda: "elastic recovery policy for evicted gangs "
        f"({_cluster_names('ELASTIC_POLICIES')})",
    )
    fault_seed: int = _arg(0, help="seed for fault generation")


@dataclass(frozen=True)
class ClusterRequest(_Contention):
    """A fleet replay: ``repro cluster`` and ``POST /v1/cluster``."""

    nodes: Optional[str] = _arg(
        help="cluster shorthand, e.g. a6000:4,a6000:4,2080ti:4 (default: 4-node fleet)"
    )
    policy: str = _arg(
        "all", help=lambda: f"placement policy ({_cluster_names('POLICIES')}) or 'all'"
    )
    num_jobs: int = _arg(200)
    arrival: str = _arg("poisson", choices=ARRIVAL_KINDS)
    rate: float = _arg(0.5, help="jobs/sec (poisson)")
    burst_size: int = _arg(8)
    burst_gap: float = _arg(120.0)
    seed: int = _arg(0)
    workload: Optional[Dict[str, Any]] = _arg(help="replay a JSON workload trace")


@dataclass(frozen=True)
class TuneRequest(_Contention):
    """An autotuning run: ``repro tune`` and ``POST /v1/tune``."""

    objective: str = _arg("epoch_time", help="what to optimise", choices=_objective_names)
    driver: str = _arg("successive-halving", help="search driver", choices=_driver_names)
    budget: int = _arg(64, help="max discrete-event simulations")
    seed: int = _arg(0)
    steps: int = _arg(10, help="full-fidelity steps")
    strategies: Optional[List[str]] = _arg(help=f"{_COMMA}, e.g. DP,TR+DPU+AHD")
    batch_sizes: Optional[List[int]] = _arg(help=f"{_COMMA}, e.g. 128,256,512")
    gpu_counts: Optional[List[int]] = _arg(help=f"{_COMMA}, e.g. 2,4")
    servers: Optional[List[str]] = _arg(help=f"{_COMMA}, e.g. a6000,2080ti")
    tasks: Optional[List[str]] = _arg(help=_COMMA)
    datasets: Optional[List[str]] = _arg(help=_COMMA)
    policies: Optional[List[str]] = _arg(
        help=f"{_COMMA} of placement policies (required for jobs_per_hour)"
    )
    nodes: Optional[str] = _arg(
        help="cluster shorthand for throughput probes, e.g. a6000:4,2080ti:4"
    )
    deadline: Optional[float] = _arg(
        help="epoch-time deadline in seconds (cost objective only)"
    )


@dataclass(frozen=True)
class PrecomputeRequest:
    """A warming grid: ``repro precompute`` and ``POST /v1/precompute``.

    The grid is a named preset (``grid``) or every axis crossed with every
    strategy.  Cells already in the store are counted, not rerun; the rest
    run through the session's execution backend and are written through
    the shared store, so later queries covering these cells answer with
    zero simulations.  The store's ``manifest.json`` records the grid and
    pins its rows against gc.
    """

    tasks: List[str] = _arg(["nas"], help=_COMMA)
    datasets: List[str] = _arg(["cifar10"], help=_COMMA)
    servers: List[str] = _arg(["a6000"], help=f"{_COMMA}, e.g. a6000,2080ti")
    gpu_counts: List[int] = _arg([4], help=f"{_COMMA}, e.g. 2,4")
    batch_sizes: List[int] = _arg([256], help=f"{_COMMA}, e.g. 128,256")
    strategies: Optional[List[str]] = _arg(
        help=f"{_COMMA} (default: every registered strategy)"
    )
    steps: int = _arg(10, help="simulated steps")
    backend: Optional[str] = _arg(
        help="execution backend for grid cells (default: the session's)",
        choices=BACKENDS.names,
    )
    grid: Optional[str] = _arg(
        help="named grid preset; it fixes every axis and steps, so leave those "
        "at their defaults",
        choices=tuple(sorted(GRIDS)),
    )
    max_cells: Optional[int] = _arg(
        help="simulate at most this many missing cells (a later run resumes "
        "the rest)"
    )


# ---------------------------------------------------------------------- #
# Body validation: a JSON object into a request type
# ---------------------------------------------------------------------- #
#: The error ``type`` code of a value that is not of the expected type.
_TYPE_CODES = {
    int: "int_type",
    float: "float_type",
    str: "string_type",
    list: "list_type",
    dict: "dict_type",
}

#: The JSON name of each Python type ``json.loads`` returns.
_JSON_NAMES = {
    type(None): "null",
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "an array",
    dict: "an object",
}


class _Invalid(Exception):
    """A value failed its field check.

    ``errors`` holds one ``{loc, msg, type}`` entry per problem, each
    ``loc`` relative to the value checked.
    """

    def __init__(self, errors: List[dict]) -> None:
        super().__init__(errors)
        self.errors = errors


def _invalid(expected: type, value: Any) -> _Invalid:
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    message = f"expected {_JSON_NAMES[expected]}, got {got}"
    return _Invalid([{"loc": [], "msg": message, "type": _TYPE_CODES[expected]}])


def _under(key: Union[str, int], errors: List[dict]) -> List[dict]:
    """``errors`` with ``key`` put in front of each ``loc``."""
    return [{**error, "loc": [key, *error["loc"]]} for error in errors]


def _field_check(annotation: Any) -> Callable[[Any], Any]:
    """The check of one field annotation: the value to store, or :class:`_Invalid`.

    JSON types are exact: a ``bool`` is not an integer and a string is not
    a number.  ``null`` passes only an ``Optional`` field, and an integer
    sent to a ``float`` field becomes a float.
    """
    origin = get_origin(annotation)
    if origin is Union:
        (inner_type,) = [arg for arg in get_args(annotation) if arg is not type(None)]
        inner = _field_check(inner_type)

        def optional(value):
            return None if value is None else inner(value)

        return optional
    if origin is list:
        item = _field_check(get_args(annotation)[0])

        def array(value):
            if type(value) is not list:
                raise _invalid(list, value)
            items, errors = [], []
            for index, entry in enumerate(value):
                try:
                    items.append(item(entry))
                except _Invalid as invalid:
                    errors += _under(index, invalid.errors)
            if errors:
                raise _Invalid(errors)
            return items

        return array
    if annotation is float:

        def number(value):
            if type(value) is float:
                return value
            if type(value) is int:
                return float(value)
            raise _invalid(float, value)

        return number
    expected = origin or annotation

    def exact(value):
        if type(value) is not expected:
            raise _invalid(expected, value)
        return value

    return exact


def from_mapping(kind: type, body: Any):
    """Build request type ``kind`` from a decoded JSON body, or raise a 422.

    Absent fields keep their defaults.  Every wrong value and every unknown
    key is reported at once: the error's ``detail`` lists one
    ``{loc, msg, type}`` per problem, fields in declaration order, then
    the unknown keys.
    """
    checks = _CHECKS[kind]
    if type(body) is not dict:
        errors = _invalid(dict, body).errors
    else:
        values, errors = {}, []
        for name, value in body.items():
            check = checks.get(name)
            if check is None:
                errors.append(
                    {
                        "loc": [name],
                        "msg": f"unknown field; {kind.__name__} has {', '.join(checks)}",
                        "type": "unexpected_keyword_argument",
                    }
                )
                continue
            try:
                values[name] = check(value)
            except _Invalid as invalid:
                errors += _under(name, invalid.errors)
        if not errors:
            return kind(**values)
        order = {name: index for index, name in enumerate(checks)}
        errors.sort(key=lambda error: order.get(error["loc"][0], len(order)))
    first = errors[0]
    where = ".".join(str(part) for part in first["loc"]) or "body"
    more = f" (and {len(errors) - 1} more)" if len(errors) > 1 else ""
    raise RequestError(
        422,
        "validation",
        f"request body failed validation against {kind.__name__}: "
        f"{where}: {first['msg']}{more}",
        detail=errors,
    )


# ---------------------------------------------------------------------- #
# Boundary checks
# ---------------------------------------------------------------------- #
def _check_choice(field: str, value: Optional[str], choices) -> None:
    if value is not None and value not in choices:
        raise RequestError(
            400,
            "unknown_choice",
            f"unknown {field} {value!r}; valid choices: {list(choices)}",
            field=field,
            value=value,
            choices=list(choices),
        )


def _check_choices(field: str, values, choices) -> None:
    for value in values or ():
        _check_choice(field, value, choices)


#: Request fields that cannot both be set, and why.
_EXCLUSIVE = (
    ("faults", "fault_trace", "pass a generator spec or a concrete trace, not both"),
    ("tenants", "workload", "workload traces carry their own tenant roster"),
)


def check_exclusive(values: Mapping[str, Any]) -> None:
    """Reject field values that set both members of an exclusive pair.

    ``values`` maps field names to values (a request's ``vars()``, or the
    CLI's parsed flags before it reads any document file).
    """
    for first, second, reason in _EXCLUSIVE:
        if values.get(first) is not None and values.get(second) is not None:
            raise RequestError(
                400,
                "domain",
                f"{first!r} and {second!r} are mutually exclusive; {reason}",
                field=first,
            )


def _document(kind: type, document: dict, field: str, what: str):
    """Parse an inline JSON document; a wrong shape is a 422."""
    try:
        return kind.from_dict(document)
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise RequestError(
            422,
            "malformed_document",
            f"malformed {what}: {error}; expected the JSON shape "
            f"{kind.__name__}.save() writes",
            field=field,
        ) from error


def _resolve_faults(request) -> Union["FaultTrace", object, None]:
    """Coerce a request's fault fields to a fault source (or None)."""
    from repro.cluster.faults import FAULT_PRESETS, FaultTrace, parse_fault_spec

    if request.fault_trace is not None:
        return _document(FaultTrace, request.fault_trace, "fault_trace", "fault trace")
    if request.faults is not None:
        try:
            return parse_fault_spec(request.faults)
        except ReproError as error:
            raise RequestError(
                400,
                "bad_fault_spec",
                str(error),
                field="faults",
                value=request.faults,
                choices=sorted(FAULT_PRESETS),
            ) from error
    return None


def _resolve_price_curve(request) -> Optional["PriceCurve"]:
    """Parse a request's price curve (None without one)."""
    from repro.cluster.market import PRICE_CURVES, parse_price_curve

    try:
        return parse_price_curve(request.price_curve)
    except ReproError as error:
        raise RequestError(
            400,
            "bad_price_curve",
            str(error),
            field="price_curve",
            value=request.price_curve,
            choices=sorted(PRICE_CURVES),
        ) from error


# ---------------------------------------------------------------------- #
# Commands: (session, request) -> (payload, domain result)
# ---------------------------------------------------------------------- #
def plan(session: Session, request: PlanRequest):
    """Run one cell; the result is the :class:`ExecutionResult`."""
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
    result = session.run(config)
    return {"config": config.to_dict(), "result": result.to_dict()}, result


def sweep(session: Session, request: SweepRequest):
    """Run a grid; the result is the :class:`SweepResult`."""
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
    result = session.sweep(
        base,
        batch_sizes=request.batch_sizes,
        num_gpus=request.gpu_counts,
        datasets=request.datasets,
        servers=request.servers,
        tasks=request.tasks,
        strategies=request.strategies,
        backend=request.backend,
    )
    return result.to_dict(), result


def make_workload(request: ClusterRequest) -> "Workload":
    """The workload a cluster request replays: its inline document, a
    tenant roster's merged streams, or a generated arrival process."""
    from repro.cluster.workload import (
        DEFAULT_MIX,
        Workload,
        arrival_process,
        parse_tenant_shorthand,
        tenant_workload,
    )

    if request.workload is not None:
        return _document(Workload, request.workload, "workload", "workload trace")
    if request.tenants is not None:
        return tenant_workload(
            parse_tenant_shorthand(request.tenants),
            request.num_jobs,
            rate=request.rate,
            seed=request.seed,
            deadline_slack=request.deadline_slack,
            diurnal=request.arrival == "diurnal",
        )
    return arrival_process(
        request.arrival,
        request.num_jobs,
        rate=request.rate,
        burst_size=request.burst_size,
        burst_gap=request.burst_gap,
        seed=request.seed,
        mix=DEFAULT_MIX,
    )


def cluster(session: Session, request: ClusterRequest):
    """Replay a fleet; the result maps each policy to its report."""
    from repro.cluster.elastic import ELASTIC_POLICIES
    from repro.cluster.faults import FaultTrace
    from repro.cluster.scheduler import POLICIES
    from repro.cluster.simulator import run_policy_comparison
    from repro.cluster.spec import cluster_from_shorthand, default_cluster

    check_exclusive(vars(request))
    if request.policy != "all":
        _check_choice("policy", request.policy, POLICIES.names())
    _check_choice("elastic", request.elastic, ELASTIC_POLICIES.names())
    _check_choice("arrival", request.arrival, ARRIVAL_KINDS)
    fleet = (
        cluster_from_shorthand(request.nodes)
        if request.nodes is not None
        else default_cluster()
    )
    price_curve = _resolve_price_curve(request)
    workload = make_workload(request)
    faults = _resolve_faults(request)
    policies = (
        tuple(POLICIES.names()) if request.policy == "all" else (request.policy,)
    )
    reports = run_policy_comparison(
        fleet,
        workload,
        policies=policies,
        session=session,
        faults=faults,
        elastic=request.elastic,
        fault_seed=request.fault_seed,
        price_curve=price_curve,
    )
    payload: Dict[str, Any] = {
        "cluster": fleet.to_dict(),
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
    return payload, reports


def tune(session: Session, request: TuneRequest):
    """Search a tuning space; the result is the :class:`TuneResult`."""
    from repro.cluster.elastic import ELASTIC_POLICIES
    from repro.cluster.scheduler import POLICIES
    from repro.cluster.spec import cluster_from_shorthand
    from repro.tune.objective import MinCostUnderDeadline
    from repro.tune.space import TuneSpace, default_space
    from repro.tune.tuner import tune as run_tune

    check_exclusive(vars(request))
    _check_choice("objective", request.objective, _objective_names())
    _check_choice("driver", request.driver, _driver_names())
    _check_choices("strategy", request.strategies, REGISTRY.names())
    _check_choices("server", request.servers, VALID_SERVERS)
    _check_choices("task", request.tasks, VALID_TASKS)
    _check_choices("dataset", request.datasets, VALID_DATASETS)
    _check_choices("policy", request.policies, POLICIES.names())
    _check_choice("elastic", request.elastic, ELASTIC_POLICIES.names())
    if request.deadline is not None and request.objective != "cost":
        raise RequestError(
            400,
            "domain",
            f"'deadline' only applies to the 'cost' objective, not "
            f"{request.objective!r}; drop the field or use objective='cost'",
            field="deadline",
        )
    base = default_space()

    def axis(values, default):
        return default if values is None else tuple(values)

    space = TuneSpace(
        strategies=axis(request.strategies, base.strategies),
        batch_sizes=axis(request.batch_sizes, base.batch_sizes),
        gpu_counts=axis(request.gpu_counts, base.gpu_counts),
        servers=axis(request.servers, base.servers),
        tasks=axis(request.tasks, base.tasks),
        datasets=axis(request.datasets, base.datasets),
        policies=axis(request.policies, ()),
        clusters=(
            () if request.nodes is None else (cluster_from_shorthand(request.nodes),)
        ),
    )
    objective = (
        MinCostUnderDeadline(deadline=request.deadline)
        if request.deadline is not None
        else request.objective
    )
    result = run_tune(
        space,
        session=session,
        objective=objective,
        driver=request.driver,
        budget=request.budget,
        seed=request.seed,
        simulated_steps=request.steps,
        faults=_resolve_faults(request),
        elastic=request.elastic,
        fault_seed=request.fault_seed,
        tenants=request.tenants,
        price_curve=_resolve_price_curve(request),
        slo_deadline_slack=request.deadline_slack,
    )
    return result.to_dict(), result


#: The config axes of a precompute grid, and every field a preset fixes.
_AXES = ("tasks", "datasets", "servers", "gpu_counts", "batch_sizes")
_GRID_FIELDS = (*_AXES, "strategies", "steps")


def precompute(session: Session, request: PrecomputeRequest):
    """Warm the session's store with a grid; the result is the pregen report."""
    if session.store is None:
        raise RequestError(
            400,
            "no_store",
            "precompute warms the shared experiment store, but there is "
            "none; pass --store PATH (or set REPRO_STORE)",
        )
    _check_choice("grid", request.grid, sorted(GRIDS))
    if request.grid is not None:
        defaults = PrecomputeRequest()
        for name in _GRID_FIELDS:
            if getattr(request, name) != getattr(defaults, name):
                raise RequestError(
                    400,
                    "domain",
                    f"{name!r} is fixed by grid {request.grid!r}; drop it or "
                    "drop 'grid'",
                    field=name,
                )
    _check_choices("task", request.tasks, VALID_TASKS)
    _check_choices("dataset", request.datasets, VALID_DATASETS)
    _check_choices("server", request.servers, VALID_SERVERS)
    strategies = (
        REGISTRY.names() if request.strategies is None else tuple(request.strategies)
    )
    _check_choices("strategy", strategies, REGISTRY.names())
    _check_choice("backend", request.backend, BACKENDS.names())
    axes = {name: getattr(request, name) for name in _AXES}
    for name, values in {**axes, "strategies": strategies}.items():
        if not values:
            raise RequestError(
                400,
                "domain",
                f"precompute grid axis {name!r} must be non-empty",
                field=name,
            )
    grid = request.grid or GridSpec(
        name="custom",
        **{name: tuple(values) for name, values in axes.items()},
        strategies=strategies,
        steps=request.steps,
    )
    report = run_pregen(
        session, grid, backend=request.backend, max_cells=request.max_cells
    )
    payload = {
        "spec": dataclasses.asdict(request),
        **report,
        "store": session.store.disk_summary(),
    }
    return payload, report


#: Every command by name: its request type and the function that runs it.
#: The service serves each at ``POST /v1/<name>``.
COMMANDS: Dict[str, Tuple[type, Callable]] = {
    "plan": (PlanRequest, plan),
    "sweep": (SweepRequest, sweep),
    "cluster": (ClusterRequest, cluster),
    "tune": (TuneRequest, tune),
    "precompute": (PrecomputeRequest, precompute),
}

#: Each request type's field checks in field order, built once (see
#: :func:`from_mapping`).
_CHECKS: Dict[type, Dict[str, Callable[[Any], Any]]] = {
    kind: {spec.name: _field_check(spec.type) for spec in dataclasses.fields(kind)}
    for kind, _ in COMMANDS.values()
}
