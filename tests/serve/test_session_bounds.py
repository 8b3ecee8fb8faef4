"""The default table bounds hold the benchmark's whole working set.

One pass of the plan-cold grid (``shuffled_grid(0)``, 1152 cold
``/v1/plan`` requests) through one service, then the same requests warm,
must drop nothing from the session's tables: with the default bounds
(:data:`~repro.core.session.MEMO_ENTRIES`,
:data:`~repro.parallel.executor.HELD_TEMPLATE_SHAPES`) no perfbench
workload rebuilds what it built once.
"""

from __future__ import annotations

from repro.core.session import MEMO_ENTRIES
from repro.parallel.executor import HELD_TEMPLATE_SHAPES
from repro.serve.client import LocalClient
from repro.serve.service import PlannerService
from tests.serve.test_plan_cold_digest import shuffled_grid


def test_the_default_bounds_hold_a_cold_and_a_warm_pass_of_the_plan_grid(tmp_path):
    service = PlannerService(store=tmp_path / "store")
    client = LocalClient(service)
    grid = shuffled_grid(0)
    for warm in (False, True):
        for body in grid:
            response = client.post("/v1/plan", json=body)
            assert response.status_code == 200, response.json()
            assert response.json()["meta"]["request"]["warm"] is warm
    session = service.session
    sizes = {cache: len(memo) for cache, memo in session._memos.items()}
    assert sizes == {
        "pair": 4,
        "server": 4,
        "executor": 48,
        "profile": 64,
        "plan": 384,
        "store": 1152,
        "warm_cell": 384,
    }
    assert len(session._templates) == 56
    assert session.stats.evictions == 0
    assert 3 * max(sizes.values()) < MEMO_ENTRIES
    assert 2 * len(session._templates) < HELD_TEMPLATE_SHAPES
