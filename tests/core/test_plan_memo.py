"""The session's plan memo: one planner search per (strategy object, cell).

A plan depends on the cell (task, dataset, server, GPU count, batch size)
and on the strategy that made it, never on the number of simulated steps.
``Session.run`` therefore plans each (registered strategy object, cell)
once and reuses the plan for every step count.  The checks below hold the
stored plans to a fresh ``planner.build`` and pin what bypasses or drops
the memo.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.parallel.baseline_dp import build_dp_plan
from repro.parallel.internal_relay import build_ir_plan
from repro.parallel.profiler import Profiler
from repro.parallel.registry import REGISTRY, register_strategy

STEPS = (5, 10, 20)
CELLS = (
    dict(task="nas", dataset="cifar10", server="a6000", num_gpus=4, batch_size=256),
    dict(task="compression", dataset="imagenet", server="2080ti", num_gpus=2, batch_size=64),
)


def fresh_plan(config: ExperimentConfig, name: str):
    """The plan a planner search gives with nothing cached."""
    planner = REGISTRY.get(name)
    pair, server = config.build_pair(), config.build_server()
    profile = None
    if planner.requires_profile:
        profile = Profiler(pair=pair, server=server).profile(
            global_batch=config.batch_size, extra_batches=(config.batch_size,)
        )
    return planner.build(pair, server, config.batch_size, config.build_dataset(), profile=profile)


@pytest.mark.parametrize("name", REGISTRY.names()[:6])
def test_stored_plans_equal_a_fresh_build(name):
    session = Session()
    for cell in CELLS:
        expected = None
        for steps in STEPS:
            config = ExperimentConfig(strategy=name, simulated_steps=steps, **cell)
            result = session.run(config)
            if expected is None:
                expected = fresh_plan(config, name)
            assert result.plan == expected
            assert result.plan.to_dict() == expected.to_dict()
            assert result.to_dict()["plan"] == expected.to_dict()
    assert (session.stats.plan_builds, session.stats.plan_hits) == (2, 4)
    assert session.stats.runs == 6


class Counting:
    """A user strategy that counts its planner searches."""

    name = "MEMO-COUNT"
    requires_profile = True

    def __init__(self) -> None:
        self.calls = []

    def build(self, pair, server, batch_size, dataset, profile=None):
        self.calls.append(profile)
        plan = build_dp_plan(pair, server, batch_size)
        return dataclasses.replace(plan, strategy=self.name)


@pytest.fixture
def counting():
    strategy = Counting()
    register_strategy(strategy)
    try:
        yield strategy
    finally:
        REGISTRY.unregister(Counting.name)


def test_an_explicit_profile_neither_reads_nor_writes_the_memo(counting):
    session = Session()
    config = ExperimentConfig(strategy=Counting.name, batch_size=128, simulated_steps=5)
    profile = session.profile(config)
    for _ in range(2):
        session.run(config, profile=profile)
    assert counting.calls == [profile, profile]
    assert (session.stats.plan_builds, session.stats.plan_hits) == (0, 0)
    # Nothing was stored: the first plain run searches, the next reuses it.
    session.run(config)
    session.run(dataclasses.replace(config, simulated_steps=10))
    assert len(counting.calls) == 3
    assert (session.stats.plan_builds, session.stats.plan_hits) == (1, 1)
    # A stored plan does not answer an explicit profile either.
    session.run(config, profile=profile)
    assert len(counting.calls) == 4


def test_a_name_registered_again_never_gets_the_old_plan():
    class First:
        name = "MEMO-SWAP"
        requires_profile = False

        def build(self, pair, server, batch_size, dataset, profile=None):
            return dataclasses.replace(build_dp_plan(pair, server, batch_size), strategy=self.name)

    class Second(First):
        def build(self, pair, server, batch_size, dataset, profile=None):
            return dataclasses.replace(build_ir_plan(pair, server, batch_size), strategy=self.name)

    session = Session()
    register_strategy(First)
    try:
        config = ExperimentConfig(strategy="MEMO-SWAP", batch_size=128, simulated_steps=5)
        assert session.run(config).plan.kind == "data_parallel"
        REGISTRY.unregister("MEMO-SWAP")
        register_strategy(Second)
        assert session.run(config).plan.kind == "pipeline"
        REGISTRY.register(First(), replace=True)
        assert session.run(config).plan.kind == "data_parallel"
    finally:
        REGISTRY.unregister("MEMO-SWAP")
    assert (session.stats.plan_builds, session.stats.plan_hits) == (3, 0)


def test_clear_empties_the_memo_and_hit_rate_reads_it():
    session = Session()
    config = ExperimentConfig(strategy="TR+DPU+AHD", batch_size=128, simulated_steps=5)
    session.run(config)
    session.run(dataclasses.replace(config, simulated_steps=6))
    assert session.stats.hit_rate("plan") == 0.5
    session.clear()
    session.run(config)
    assert (session.stats.plan_builds, session.stats.plan_hits) == (2, 1)
    assert session.stats.hit_rate("plan") == pytest.approx(1 / 3)
    assert "plan" in session.stats.CACHES
    assert {"plan_builds", "plan_hits"} <= set(session.stats.to_dict())


def test_a_store_hit_plans_nothing(tmp_path):
    config = ExperimentConfig(strategy="TR", batch_size=128, simulated_steps=5)
    Session(store=tmp_path / "store").run(config)
    warm = Session(store=tmp_path / "store")
    assert warm.run(config).plan == Session().run(config).plan
    assert (warm.stats.plan_builds, warm.stats.plan_hits, warm.stats.store_hits) == (0, 0, 1)


def test_threads_racing_one_session_plan_each_cell_once():
    # More threads than cores and a tiny switch interval: every thread asks
    # for the same plans in a different order.
    configs = [
        ExperimentConfig(strategy=name, num_gpus=4, batch_size=batch, simulated_steps=steps)
        for name in ("LS", "TR", "TR+DPU+AHD")
        for batch in (64, 256)
        for steps in (4, 6)
    ]
    expected = {config: fresh_plan(config, config.strategy) for config in configs}
    session = Session()
    plans = {config: [] for config in configs}
    errors = []

    def worker(offset: int) -> None:
        try:
            for config in configs[offset:] + configs[:offset]:
                plans[config].append(session.run(config).plan)
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(index,)) for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for config, seen in plans.items():
        assert len(seen) == len(threads)
        assert all(plan == expected[config] for plan in seen)
    assert session.stats.plan_builds == 6  # 3 strategies x 2 cells
    assert session.stats.plan_hits == len(threads) * len(configs) - 6
