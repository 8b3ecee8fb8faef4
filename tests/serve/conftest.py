"""Fixtures for the planner-as-a-service test suite.

The ``client`` fixtures are in-process
:class:`~repro.serve.client.LocalClient` instances over a
:class:`~repro.serve.service.PlannerService`; the HTTP frontend itself
is driven over real sockets in ``test_http_stdlib.py``.
"""

from __future__ import annotations

import pytest

from repro.serve.client import LocalClient
from repro.serve.service import PlannerService


@pytest.fixture
def make_client():
    """The client factory itself, for tests that build services mid-test
    (e.g. the warm-restart suite, which boots a second service on the same
    store directory)."""
    return LocalClient


@pytest.fixture
def store_root(tmp_path):
    return tmp_path / "store"


@pytest.fixture
def service(store_root):
    """A store-backed service (the deployment shape the issue targets)."""
    return PlannerService(store=store_root)


@pytest.fixture
def client(service):
    return LocalClient(service)


@pytest.fixture
def bare_service():
    """A storeless service (plans still work; precompute must refuse)."""
    return PlannerService()


@pytest.fixture
def bare_client(bare_service):
    return LocalClient(bare_service)
