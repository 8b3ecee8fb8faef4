"""The plan-cold grid's answers, pinned by one digest.

Every ``/v1/plan`` body of the benchmark's ``shuffled_grid(0)`` (1152
requests) is sent cold, in grid order, to a service over a fresh store.
Each answer, without its ``meta`` section, is serialised with
``json.dumps`` and fed to one SHA-256.  A change that must not move an
output byte (a refactor of the lowering, the templates or the engine)
leaves :data:`PLAN_COLD_DIGEST` as it is; a change that moves results on
purpose records the new digest this test prints.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

from repro.serve.client import LocalClient
from repro.serve.service import PlannerService

ROOT = Path(__file__).resolve().parents[2]

#: SHA-256 of the seed-0 plan-cold answers, ``meta`` removed, in grid order.
PLAN_COLD_DIGEST = "e37807bd5a4fd876bb24ca7bcdce3b1d8cc09a1be7931be656f8652ec91ba7c2"


def shuffled_grid(seed):
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.shuffled_grid(seed)


def test_the_plan_cold_grid_answers_hash_to_the_pinned_digest(tmp_path):
    client = LocalClient(PlannerService(store=tmp_path / "store"))
    digest = hashlib.sha256()
    for body in shuffled_grid(0):
        response = client.post("/v1/plan", json=body)
        payload = response.json()
        assert response.status_code == 200, payload
        assert payload.pop("meta")["request"]["warm"] is False
        digest.update(json.dumps(payload).encode())
    assert digest.hexdigest() == PLAN_COLD_DIGEST, f"new digest: {digest.hexdigest()}"
