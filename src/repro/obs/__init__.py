"""Observability layer: metrics registry, span tracer, structured logs.

Three independent primitives with one shared goal — make the simulator,
store, cluster, tune, and serve layers *inspectable*:

* :mod:`repro.obs.metrics` — process-wide :class:`MetricsRegistry`
  (counters / gauges / histograms; Prometheus text + JSON renderers).
* :mod:`repro.obs.tracing` — nested wall-time :func:`span` blocks into a
  ring-buffer :class:`SpanRecorder` with chrome-trace export; free when
  no recorder is installed.
* :mod:`repro.obs.logs` — stdlib logging with a JSON formatter and a
  per-request ``request_id`` :mod:`contextvars` variable.

``repro.obs.profiler`` combines them into the CLI's ``--profile PATH``.
See ``docs/OBSERVABILITY.md`` for the full tour.
"""

from repro.obs.logs import (
    JsonFormatter,
    bind_request_id,
    configure_logging,
    current_request_id,
    get_logger,
    new_request_id,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.profiler import (
    ProfileReport,
    format_breakdown,
    profile_workload,
)
from repro.obs.tracing import (
    Span,
    SpanRecorder,
    get_recorder,
    install_recorder,
    span,
    uninstall_recorder,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "Span",
    "SpanRecorder",
    "span",
    "get_recorder",
    "install_recorder",
    "uninstall_recorder",
    "JsonFormatter",
    "configure_logging",
    "get_logger",
    "bind_request_id",
    "current_request_id",
    "new_request_id",
    "ProfileReport",
    "profile_workload",
    "format_breakdown",
]
