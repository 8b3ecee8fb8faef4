"""Warm-restart guarantees: a second identical workload simulates nothing.

These are the acceptance tests of the persistence layer: sweeps, tuning
runs and cluster replays backed by the same on-disk store must perform
zero discrete-event simulations the second time, asserted through
``SessionStats`` (``runs`` counts true simulations, ``store_hits`` counts
hydrations).
"""

import json
import sys
import threading
from dataclasses import replace

import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.cluster.spec import default_cluster
from repro.cluster.workload import poisson_workload
from repro.core.config import ExperimentConfig
from repro.core.session import Session
from repro.parallel.registry import REGISTRY
from repro.serve.client import LocalClient
from repro.serve.service import PlannerService
from repro.tune.space import TuneSpace
from repro.tune.tuner import tune


def edit_every_container(tree, path=""):
    """Add an item to every dict and list in ``tree``; returns their dotted paths."""
    edited = {path} if path else set()
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in list(items):
        if isinstance(value, (dict, list)):
            edited |= edit_every_container(value, f"{path}.{key}" if path else str(key))
    if isinstance(tree, dict):
        tree["edited"] = True
    else:
        tree.append("edited")
    return edited


def reachable_bytes(roots) -> int:
    """``sys.getsizeof`` summed over the distinct objects ``roots`` reach.

    It follows dict keys and values, list and tuple items, and the
    attributes of objects that have them (results, plans, stages).
    """
    seen, total, stack = set(), 0, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            attributes = vars(obj)
            total += sys.getsizeof(attributes)
            stack.extend(attributes.values())
    return total


@pytest.fixture
def fast_config():
    return ExperimentConfig(task="nas", dataset="cifar10", simulated_steps=4)


@pytest.fixture
def store_root(tmp_path):
    return tmp_path / "store"


class TestWarmRun:
    def test_second_run_hydrates(self, fast_config, store_root):
        cold = Session(store=store_root)
        first = cold.run(fast_config)
        warm = Session(store=store_root)
        second = warm.run(fast_config)
        assert cold.stats.runs == 1 and cold.stats.store_builds == 1
        assert warm.stats.runs == 0 and warm.stats.store_hits == 1
        assert second.epoch_time == first.epoch_time
        assert second.to_dict() == first.to_dict()

    def test_hydrated_result_has_usable_plan(self, fast_config, store_root):
        Session(store=store_root).run(fast_config, strategy="TR+DPU+AHD")
        warm = Session(store=store_root).run(fast_config, strategy="TR+DPU+AHD")
        assert warm.plan.kind == "pipeline"
        assert warm.plan.num_stages >= 1
        assert warm.max_memory_gb() > 0

    def test_profile_override_bypasses_store(self, fast_config, store_root):
        session = Session(store=store_root)
        session.run(fast_config, strategy="LS")
        profile = Session().profile(fast_config)
        session.run(fast_config, strategy="LS", profile=profile)
        # The overridden run re-simulated rather than serving the record.
        assert session.stats.runs == 2
        assert session.stats.store_builds == 1

    def test_different_steps_are_different_records(self, fast_config, store_root):
        session = Session(store=store_root)
        session.run(fast_config)
        session.run(replace(fast_config, simulated_steps=6))
        assert session.stats.runs == 2
        assert session.stats.store_builds == 2


class TestWarmMemo:
    """A session reads each stored run once and serves later hits from memory."""

    @pytest.fixture
    def warm(self, fast_config, store_root):
        Session(store=store_root).run(fast_config)
        return Session(store=store_root)

    def test_repeated_warm_reads_make_one_store_lookup(self, fast_config, warm):
        results = [warm.run(fast_config) for _ in range(5)]
        assert warm.store.stats().hits == 1
        assert warm.stats.store_hits == 5 and warm.stats.runs == 0
        assert all(result is results[0] for result in results)

    def test_a_cold_write_is_not_kept(self, fast_config, store_root):
        session = Session(store=store_root)
        session.run(fast_config)
        session.run(fast_config)
        assert session.store.stats().hits == 1

    def test_a_payload_edited_by_its_caller_leaves_the_next_answer_alone(self, store_root):
        client = LocalClient(PlannerService(store=store_root))
        body = {"strategy": "TR", "num_gpus": 2, "batch_size": 128, "steps": 4}
        client.post("/v1/plan", json=body)
        first = client.post("/v1/plan", json=body).json()["result"]
        document = json.dumps(first)
        first["epoch_time_s"] = -1.0
        first["breakdown_s"]["0"].clear()
        second = client.post("/v1/plan", json=body).json()["result"]
        assert json.dumps(second) == document

    @pytest.mark.parametrize(
        "strategy, kind, containers",
        [
            ("TR", "pipeline", ["plan.stages.0.block_ids", "plan.stages.1.device_ids"]),
            ("LS", "layerwise", ["plan.device_blocks.0", "plan.metadata.block_costs"]),
            ("DP", "data_parallel", ["metadata.per_block_step_times"]),
        ],
        ids=("pipeline", "layerwise", "data_parallel"),
    )
    def test_every_container_of_an_edited_payload_leaves_the_next_answer_alone(
        self, store_root, strategy, kind, containers
    ):
        client = LocalClient(PlannerService(store=store_root))
        body = {"strategy": strategy, "num_gpus": 4, "batch_size": 128, "steps": 4}
        client.post("/v1/plan", json=body)
        first = client.post("/v1/plan", json=body).json()["result"]
        assert first["plan_kind"] == kind
        document = json.dumps(first)
        edited = edit_every_container(first)
        for path in containers + [
            "breakdown_s",
            "breakdown_s.0",
            "metadata",
            "peak_memory_bytes",
            "peak_memory_gb",
            "plan",
            "plan.device_blocks" if kind == "layerwise" else "plan.stages",
            "plan.metadata",
        ]:
            assert path in edited
        second = client.post("/v1/plan", json=body).json()["result"]
        assert json.dumps(second) == document

    def test_a_kept_entry_stays_within_its_memory_budget(self, store_root):
        configs = [
            ExperimentConfig(
                strategy=strategy, num_gpus=gpus, batch_size=batch, simulated_steps=steps
            )
            for strategy in REGISTRY.names()
            for gpus in (2, 4)
            for batch in (128, 256)
            for steps in (4, 5, 6)
        ]
        cold = Session(store=store_root)
        for config in configs:
            cold.run(config)
        warm = Session(store=store_root)
        for config in configs:
            warm.run(config).to_dict()
        kept = list(warm._memos["store"].values())
        assert len(kept) == len(configs)
        # 3.61 KB an entry on CPython 3.11: the result, its document, and a
        # share of the plan and of the plan and peak-memory parts of the
        # document, which the step counts of a cell share.  Keeping the parsed record
        # as well (8.9 KB), or a document that copies the result's
        # containers instead of sharing them (8.2 KB), does not fit.
        assert reachable_bytes(kept) / len(kept) < 5000

    def test_gc_through_the_handle_drops_kept_results(self, fast_config, warm):
        warm.run(fast_config)
        assert warm.store.gc(max_records=0) == 1
        warm.run(fast_config)
        assert warm.stats.runs == 1 and warm.stats.store_hits == 1

    def test_clear_drops_kept_results(self, fast_config, warm):
        warm.run(fast_config)
        warm.clear()
        warm.run(fast_config)
        assert warm.store.stats().hits == 2
        assert warm.stats.store_hits == 2

    def test_step_counts_of_one_cell_share_the_plan(self, fast_config, store_root):
        configs = [replace(fast_config, simulated_steps=steps) for steps in (4, 6)]
        cold = Session(store=store_root)
        fresh = [cold.run(config) for config in configs]
        warm = Session(store=store_root)
        kept = [warm.run(config) for config in configs]
        assert kept[0].plan is kept[1].plan
        assert kept[0].peak_memory_bytes is kept[1].peak_memory_bytes
        assert [result.to_dict() for result in kept] == [result.to_dict() for result in fresh]
        documents = [result.document for result in kept]
        for name in ("plan", "max_memory_gb", "peak_memory_bytes", "peak_memory_gb"):
            assert documents[0][name] is documents[1][name]
        assert documents[0]["breakdown_s"] is not documents[1]["breakdown_s"]

    def test_threads_racing_one_warm_run_return_the_kept_result(
        self, fast_config, warm, monkeypatch
    ):
        # Both threads read the store before either keeps its result.
        both_read = threading.Barrier(2, timeout=10)
        store_get = warm.store.get

        def get(kind, key):
            both_read.wait()
            return store_get(kind, key)

        monkeypatch.setattr(warm.store, "get", get)
        results = [None, None]

        def run(index):
            results[index] = warm.run(fast_config)

        threads = [threading.Thread(target=run, args=(index,)) for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert results[0] is results[1]
        assert warm.stats.store_hits == 2 and warm.stats.runs == 0
        assert results[0].to_dict() == Session().run(fast_config).to_dict()


    def test_many_threads_reading_warm_runs_lose_no_count(self, fast_config, store_root):
        configs = [replace(fast_config, simulated_steps=steps) for steps in (4, 5, 6)]
        cold = Session(store=store_root)
        expected = [cold.run(config).to_dict() for config in configs]
        warm = Session(store=store_root)
        mismatches = []

        def read():
            for round_ in range(200):
                index = round_ % len(configs)
                if warm.run(configs[index]).to_dict() != expected[index]:
                    mismatches.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == []
        assert warm.stats.store_hits == 8 * 200 and warm.stats.runs == 0
        assert warm.store.stats().hits <= 8 * len(configs)


class TestWarmSweep:
    def test_second_identical_sweep_simulates_nothing(self, fast_config, store_root):
        cold = Session(store=store_root)
        first = cold.sweep(
            fast_config,
            batch_sizes=(128, 256),
            strategies=("DP", "TR", "TR+DPU+AHD"),
        )
        assert cold.stats.runs == 6

        warm = Session(store=store_root)
        second = warm.sweep(
            fast_config,
            batch_sizes=(128, 256),
            strategies=("DP", "TR", "TR+DPU+AHD"),
        )
        assert warm.stats.runs == 0
        assert warm.stats.store_hits == 6
        assert warm.stats.hit_rate("store") == 1.0
        # Bit-identical payloads, not merely close ones.
        assert second.to_json() == first.to_json()

    def test_warm_sweep_builds_no_profiles(self, fast_config, store_root):
        cold = Session(store=store_root)
        cold.sweep(fast_config, batch_sizes=(128, 256), strategies=("TR",))
        warm = Session(store=store_root)
        warm.sweep(fast_config, batch_sizes=(128, 256), strategies=("TR",))
        assert warm.stats.profile_builds == 0
        assert warm.stats.executor_builds == 0

    def test_partial_overlap_simulates_only_new_cells(self, fast_config, store_root):
        Session(store=store_root).sweep(
            fast_config, batch_sizes=(128,), strategies=("DP",)
        )
        grown = Session(store=store_root)
        grown.sweep(fast_config, batch_sizes=(128, 256), strategies=("DP",))
        assert grown.stats.runs == 1
        assert grown.stats.store_hits == 1

    def test_process_backend_warm_restart(self, fast_config, store_root):
        Session(store=store_root).sweep(
            fast_config, batch_sizes=(128, 256), strategies=("TR",)
        )
        warm = Session(store=store_root)
        warm.sweep(
            fast_config,
            batch_sizes=(128, 256),
            strategies=("TR",),
            backend="process",
            max_workers=2,
        )
        assert warm.stats.runs == 0
        assert warm.stats.store_hits == 2
        # Store-warm cells never reach the parent's profile cache.
        assert warm.stats.profile_builds == 0


class TestWarmTune:
    def test_second_identical_tune_simulates_nothing(self, store_root):
        space = TuneSpace(
            strategies=("DP", "TR", "TR+DPU+AHD"),
            batch_sizes=(128, 256),
            gpu_counts=(2, 4),
        )
        cold = Session(store=store_root)
        first = tune(space, session=cold, budget=8, simulated_steps=4)
        assert cold.stats.runs > 0

        warm = Session(store=store_root)
        second = tune(space, session=warm, budget=8, simulated_steps=4)
        assert warm.stats.runs == 0
        assert warm.stats.store_hits == cold.stats.runs
        assert second.best.point == first.best.point
        assert second.best.epoch_time == first.best.epoch_time
        # The evaluator knows its measurements were replays, not fresh work.
        assert second.evaluator_stats["simulations"] == 0
        assert second.evaluator_stats["store_hydrations"] > 0

    def test_warm_tune_reuses_estimates(self, store_root):
        space = TuneSpace(
            strategies=("DP", "TR"), batch_sizes=(128, 256), gpu_counts=(2,)
        )
        cold = Session(store=store_root)
        first = tune(space, session=cold, budget=4, simulated_steps=4)
        assert first.evaluator_stats["estimates"] > 0
        warm = Session(store=store_root)
        second = tune(space, session=warm, budget=4, simulated_steps=4)
        # Every analytic estimate came back from the store: none recomputed.
        assert second.evaluator_stats["estimates"] == 0
        assert second.evaluator_stats["store_hydrations"] > 0


class TestWarmCluster:
    def test_fleet_replay_simulates_nothing(self, store_root):
        workload = poisson_workload(num_jobs=8, rate=0.5)
        cold = Session(store=store_root)
        first = ClusterSimulator(
            default_cluster(), policy="fifo", session=cold
        ).run(workload)
        assert cold.stats.runs > 0

        warm = Session(store=store_root)
        second = ClusterSimulator(
            default_cluster(), policy="fifo", session=warm
        ).run(workload)
        assert warm.stats.runs == 0
        assert warm.stats.store_hits == cold.stats.runs
        assert second.makespan == first.makespan
        assert second.to_dict() == first.to_dict()


class TestHydratedTraceGuard:
    def test_render_gantt_rejects_hydrated_result_clearly(
        self, fast_config, store_root
    ):
        from repro.analysis.schedule_viz import render_gantt
        from repro.errors import ConfigurationError

        Session(store=store_root).run(fast_config, strategy="TR+DPU+AHD")
        warm = Session(store=store_root).run(fast_config, strategy="TR+DPU+AHD")
        assert warm.trace is None
        with pytest.raises(ConfigurationError, match="not persisted"):
            render_gantt(warm.trace, num_devices=4)
