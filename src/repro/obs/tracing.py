"""Nested wall-time span tracing with a ring-buffer recorder.

The tracer is the "where did the time go" half of the observability
layer (the metrics registry is the "how much / how many" half).  Any
instrumented code path wraps itself in::

    with span("store.get", kind="run"):
        ...

and when a :class:`SpanRecorder` is installed the block becomes a
:class:`Span` — name, tags, start/duration, parent link — appended to a
bounded ring buffer.  When no recorder is installed (the default, and
the serve hot path's steady state unless profiling is requested),
``span()`` returns a shared no-op context manager whose enter/exit is a
couple of attribute lookups, so instrumentation stays within the ≤5%
overhead budget enforced by ``benchmarks/bench_obs_overhead.py``.

Determinism: span ids come from a seeded :class:`itertools.count`, not
from time or randomness, so two identical runs produce identical span
trees (asserted property-style in ``tests/obs/test_tracing.py``).
Nesting is tracked with a :class:`contextvars.ContextVar`, so the parent
chain is correct across threads and async contexts without locking on
the hot path.

Export formats: :meth:`SpanRecorder.chrome_trace` emits the Chrome
``chrome://tracing`` / Perfetto JSON event list, and
:meth:`SpanRecorder.breakdown` aggregates per-name totals with
self-time (total minus direct children) for the ``--profile``
table.  Documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanRecorder",
    "span",
    "get_recorder",
    "install_recorder",
    "uninstall_recorder",
]


@dataclass
class Span:
    """One completed (or in-flight) timed block of work."""

    span_id: int
    parent_id: Optional[int]
    name: str
    tags: Dict[str, object] = field(default_factory=dict)
    start_s: float = 0.0
    duration_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "tags": dict(self.tags),
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }


#: The innermost active span id for the current thread/async context.
_current_span_id: ContextVar[Optional[int]] = ContextVar(
    "repro_current_span_id", default=None
)


class _ActiveSpan:
    """Context manager recording one span into the installed recorder."""

    __slots__ = ("_recorder", "_span", "_token", "_t0")

    def __init__(self, recorder: "SpanRecorder", name: str, tags: Dict[str, object]):
        self._recorder = recorder
        self._span = Span(
            span_id=recorder._next_id(),
            parent_id=_current_span_id.get(),
            name=name,
            tags=tags,
        )

    def __enter__(self) -> Span:
        self._token = _current_span_id.set(self._span.span_id)
        self._t0 = time.perf_counter()
        self._span.start_s = self._t0 - self._recorder.epoch_s
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._t0
        _current_span_id.reset(self._token)
        self._span.duration_s = duration
        if exc_type is not None:
            self._span.tags.setdefault("error", exc_type.__name__)
        self._recorder._record(self._span)


class _NullSpan:
    """Shared no-op context manager for the recorder-disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_SPAN = _NullSpan()

#: The installed recorder, or ``None`` (tracing disabled — the default).
_recorder: Optional["SpanRecorder"] = None
_recorder_lock = threading.Lock()


class SpanRecorder:
    """Bounded ring buffer of completed spans with deterministic ids.

    Example:
        >>> from repro.obs.tracing import SpanRecorder, span
        >>> recorder = SpanRecorder(capacity=128)
        >>> with recorder:
        ...     with span("outer"):
        ...         with span("inner", shard="ab"):
        ...             pass
        >>> [(s.span_id, s.parent_id, s.name) for s in recorder.spans()]
        [(2, 1, 'inner'), (1, None, 'outer')]
    """

    def __init__(self, capacity: int = 4096, seed: int = 1) -> None:
        if capacity < 1:
            raise ValueError("SpanRecorder capacity must be >= 1")
        self.capacity = capacity
        self.seed = seed
        self.epoch_s = time.perf_counter()
        self._ids = itertools.count(seed)
        self._spans: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.dropped = 0

    # -- recording ---------------------------------------------------
    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _record(self, completed: Span) -> None:
        with self._lock:
            if len(self._spans) == self.capacity:
                self.dropped += 1
            self._spans.append(completed)

    # -- installation ------------------------------------------------
    def __enter__(self) -> "SpanRecorder":
        install_recorder(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        uninstall_recorder(self)

    # -- inspection --------------------------------------------------
    def spans(self) -> List[Span]:
        """Recorded spans in completion order (children before parents)."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def roots(self) -> List[Span]:
        """Spans whose parent was never recorded (top-level blocks)."""
        with self._lock:
            spans = list(self._spans)
        recorded = {s.span_id for s in spans}
        return [s for s in spans if s.parent_id not in recorded]

    def children(self, span_id: Optional[int]) -> List[Span]:
        with self._lock:
            spans = list(self._spans)
        return [s for s in spans if s.parent_id == span_id]

    # -- exports -----------------------------------------------------
    def chrome_trace(self) -> dict:
        """The Chrome trace-event JSON document (load in Perfetto/
        ``chrome://tracing``).  Timestamps are microseconds relative to
        the recorder's epoch; every span is one complete ``"X"`` event.
        """
        events = []
        for s in sorted(self.spans(), key=lambda s: (s.start_s, s.span_id)):
            args = {str(k): v for k, v in s.tags.items()}
            args["span_id"] = s.span_id
            if s.parent_id is not None:
                args["parent_id"] = s.parent_id
            events.append(
                {
                    "name": s.name,
                    "ph": "X",
                    "ts": round(s.start_s * 1e6, 3),
                    "dur": round(s.duration_s * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def breakdown(self) -> List[dict]:
        """Per-name aggregate rows sorted by total time, descending.

        ``self_s`` is the time spent in spans of that name *excluding*
        their direct children — the column that says where to optimize.
        """
        spans = self.spans()
        child_time: Dict[Optional[int], float] = {}
        for s in spans:
            child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.duration_s
        rows: Dict[str, dict] = {}
        for s in spans:
            row = rows.setdefault(
                s.name, {"name": s.name, "count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += s.duration_s
            row["self_s"] += max(0.0, s.duration_s - child_time.get(s.span_id, 0.0))
        return sorted(
            rows.values(), key=lambda row: (-row["total_s"], row["name"])
        )


def span(name: str, **tags: object):
    """Time a block of work under ``name`` when tracing is enabled.

    Returns a context manager.  With no recorder installed this is the
    shared no-op span — safe (and cheap) to leave in hot paths.
    """
    recorder = _recorder
    if recorder is None:
        return _NULL_SPAN
    return _ActiveSpan(recorder, name, tags)


def get_recorder() -> Optional[SpanRecorder]:
    """The currently installed recorder, or ``None`` when disabled."""
    return _recorder


def install_recorder(recorder: SpanRecorder) -> SpanRecorder:
    """Make ``recorder`` the process-wide span sink; returns it."""
    global _recorder
    with _recorder_lock:
        _recorder = recorder
    return recorder


def uninstall_recorder(recorder: Optional[SpanRecorder] = None) -> None:
    """Disable tracing.  When ``recorder`` is given, uninstall only if it
    is the one installed (lets nested ``with SpanRecorder()`` blocks
    restore correctly without clobbering an outer recorder)."""
    global _recorder
    with _recorder_lock:
        if recorder is None or _recorder is recorder:
            _recorder = None
