"""A fresh service booted against a pregenerated artifact never simulates.

This is the PR's acceptance criterion, end to end and at full width: a
``PlannerService`` with no warm caches of its own, pointed at an
artifact produced by ``run_pregen`` over the **canonical** grid, must
answer every one of the grid's cells from the store — ``simulations ==
0`` on each response — while ``/v1/healthz`` advertises the artifact
(manifest facts).  The
``pregen-smoke`` CI job repeats the same assertion over real HTTP on the
smoke grid.
"""

from __future__ import annotations

import pytest

from repro.core.session import Session
from repro.serve.client import LocalClient
from repro.store.pregen import resolve_grid, run_pregen


@pytest.fixture(scope="module")
def canonical_artifact(tmp_path_factory):
    """One canonical-grid artifact shared by the module (96 simulations)."""
    root = tmp_path_factory.mktemp("pregen-artifact") / "store"
    report = run_pregen(Session(store=root), grid="canonical")
    assert report["complete"] and report["grid_size"] == 96
    return root


def _plan_body(config, strategy):
    return {
        "task": config.task,
        "dataset": config.dataset,
        "server": config.server,
        "num_gpus": config.num_gpus,
        "batch_size": config.batch_size,
        "strategy": strategy,
        "steps": config.simulated_steps,
    }


def test_every_canonical_cell_plans_with_zero_simulations(canonical_artifact):
    from repro.serve.service import PlannerService

    service = PlannerService(store=str(canonical_artifact))
    client = LocalClient(service)

    grid = resolve_grid("canonical")
    for config, strategy in grid.cells():
        response = client.post("/v1/plan", json=_plan_body(config, strategy))
        assert response.status_code == 200, response.json()
        meta = response.json()["meta"]["request"]
        assert meta["simulations"] == 0, (strategy, config.cell_label(), meta)
        assert meta["warm"], (strategy, config.cell_label(), meta)
    assert service.session.stats.runs == 0
    assert service.session.stats.store_hits == 96


def test_healthz_advertises_the_artifact(canonical_artifact):
    from repro.serve.service import PlannerService
    from tests.serve.shapes import HEALTH, check_shape

    service = PlannerService(store=str(canonical_artifact))
    client = LocalClient(service)

    health = client.get("/v1/healthz").json()
    check_shape(health, HEALTH)
    assert health["store_root"] == str(canonical_artifact)
    pregen = health["pregen"]
    assert pregen is not None
    assert pregen["grid"] == "canonical"
    assert pregen["complete"]
    assert pregen["row_count"] == 96
    assert pregen["grid_hash"] == resolve_grid("canonical").grid_hash()


def test_healthz_survives_a_corrupt_manifest(canonical_artifact, tmp_path):
    from repro.serve.service import PlannerService

    root = tmp_path / "store"
    run_pregen(Session(store=root), grid="smoke", max_cells=1)
    (root / "manifest.json").write_text("{not json")

    client = LocalClient(PlannerService(store=str(root)))
    body = client.get("/v1/healthz").json()
    assert body["status"] == "ok"
    assert body["pregen"] is None


def test_incomplete_artifact_is_reported_as_such(tmp_path):
    from repro.serve.service import PlannerService

    root = tmp_path / "store"
    run_pregen(Session(store=root), grid="smoke", max_cells=2)
    client = LocalClient(PlannerService(store=str(root)))
    body = client.get("/v1/healthz").json()
    assert body["pregen"]["complete"] is False
    assert body["pregen"]["row_count"] == 2
