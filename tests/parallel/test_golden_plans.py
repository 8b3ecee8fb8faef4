"""Golden plan regression: the six strategies pinned byte-for-byte.

Each registered built-in strategy is built over the default golden grid
(nas on cifar10/imagenet, batch 128/256, 2/4 GPUs on a6000) and the
resulting :class:`~repro.parallel.plan.SchedulePlan` JSON documents are
compared byte-identically against committed goldens.  This is the
behavioural lock for planner refactors: a planner that
drifts by one ULP in ``metadata["estimated_step_time"]``, or picks a
different tie-broken partition, fails here.

The simulated outcome of each plan is pinned the same way: every
strategy's :meth:`~repro.parallel.executor.ExecutionResult.to_dict` over
the grid (epoch and step time, the per-device breakdown, peak memory)
must match ``result_<strategy>.json`` byte-for-byte, so a change to the
simulation engine, its trace or the breakdown metrics that moves one
float fails here.

Refreshing after an *intentional* planner change::

    PYTHONPATH=src REPRO_UPDATE_GOLDEN=1 python -m pytest \
        tests/parallel/test_golden_plans.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.config import ExperimentConfig
from repro.core.session import Session

GOLDEN_DIR = Path(__file__).parent / "golden"

STRATEGIES = ("DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD")

#: The default golden grid: every cell the plan goldens pin.
GRID = tuple(
    ExperimentConfig(
        task="nas",
        dataset=dataset,
        server="a6000",
        num_gpus=num_gpus,
        batch_size=batch_size,
        simulated_steps=6,
    )
    for dataset in ("cifar10", "imagenet")
    for num_gpus in (2, 4)
    for batch_size in (128, 256)
)


def build_strategy_payload(session: Session, strategy: str) -> str:
    """The golden JSON document for one strategy over the whole grid."""
    plans = {}
    for config in GRID:
        planner = session_planner(strategy)
        profile = session.profile(config) if planner.requires_profile else None
        plan = planner.build(
            session.pair(config),
            session.server(config),
            config.batch_size,
            session.dataset(config),
            profile=profile,
        )
        plans[config.cell_label()] = plan.to_dict()
    return json.dumps(plans, indent=2, sort_keys=True) + "\n"


def build_result_payload(session: Session, strategy: str) -> str:
    """The golden JSON document of every simulated result over the grid."""
    results = {
        config.cell_label(): session.run(config, strategy=strategy).to_dict()
        for config in GRID
    }
    return json.dumps(results, indent=2, sort_keys=True) + "\n"


def session_planner(strategy: str):
    from repro.parallel.registry import REGISTRY

    return REGISTRY.get(strategy)


def golden_path(strategy: str, prefix: str = "plan") -> Path:
    return GOLDEN_DIR / f"{prefix}_{strategy.replace('+', '_').lower()}.json"


@pytest.fixture(scope="module")
def session() -> Session:
    return Session()


def check_golden(payload: str, path: Path, what: str) -> None:
    """Compare ``payload`` to the golden at ``path`` (or refresh it)."""
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(payload)
        pytest.skip(f"golden refreshed: {path.name}")
    assert path.is_file(), (
        f"missing golden {path}; regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    assert payload == path.read_text(), (
        f"{what} drifted from {path.name}; if the change is "
        "intentional, refresh with REPRO_UPDATE_GOLDEN=1"
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy_plans_match_golden(session, strategy):
    payload = build_strategy_payload(session, strategy)
    check_golden(payload, golden_path(strategy), f"{strategy} plans")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy_results_match_golden(session, strategy):
    payload = build_result_payload(session, strategy)
    check_golden(payload, golden_path(strategy, "result"), f"{strategy} results")


def test_goldens_cover_every_registered_builtin():
    # A seventh registered strategy does not invalidate the goldens, but
    # every golden file must correspond to a registered strategy.
    from repro.parallel.registry import REGISTRY

    for strategy in STRATEGIES:
        assert strategy in REGISTRY
