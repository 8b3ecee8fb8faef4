"""Planner-as-a-service: the HTTP layer over Session / tune / cluster.

``repro.serve`` exposes the whole planning stack as a versioned JSON API:

* ``POST /v1/plan`` / ``/v1/sweep`` / ``/v1/tune`` / ``/v1/cluster`` —
  the four compute surfaces, running the same :mod:`repro.commands` as
  the ``python -m repro`` CLI (byte-identical deterministic sections);
* ``POST /v1/precompute`` — warm the shared experiment store for a grid,
  so subsequent queries answer with **zero simulations**;
* ``GET /v1/healthz`` / ``/v1/store/stats`` — operability.

Layering: :class:`PlannerService` (transport-agnostic handlers over one
:class:`~repro.core.session.Session`) is wrapped by three interchangeable
frontends — :func:`create_app` (FastAPI, optional dependency, lazily
imported), :func:`~repro.serve.http.start_server` (stdlib threaded HTTP,
zero dependencies) and :class:`~repro.serve.client.LocalClient`
(in-process, for tests/docs/benchmarks).  Importing this package never
imports FastAPI; calling :func:`create_app` without it raises a
:class:`~repro.errors.ReproError` naming the install command.

Start a server from the CLI::

    python -m repro serve --host 127.0.0.1 --port 8023 --store /tmp/store

Documented in ``docs/SERVING.md``.
"""

from repro.serve.app import create_app
from repro.serve.client import LocalClient
from repro.serve.http import PlannerHTTPServer, start_server
from repro.serve.service import PlannerService

__all__ = [
    "LocalClient",
    "PlannerHTTPServer",
    "PlannerService",
    "create_app",
    "start_server",
]
