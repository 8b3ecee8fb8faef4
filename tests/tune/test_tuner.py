"""End-to-end tuning: acceptance parity, incremental evaluation, objectives."""

import math

import pytest

from repro.core.session import Session
from repro.errors import ConfigurationError
from repro.obs.metrics import get_registry
from repro.obs.tracing import SpanRecorder
from repro.tune.drivers import DRIVERS
from repro.tune.evaluator import TuneEvaluator
from repro.tune.objective import MinCostUnderDeadline
from repro.tune.result import dominates
from repro.tune.space import TunePoint, TuneSpace, default_space
from repro.tune.tuner import tune


class TestAcceptanceParity:
    """The ISSUE's acceptance bar: the default tune finds the exhaustive
    optimum while simulating measurably fewer cells than the full grid."""

    @pytest.fixture(scope="class")
    def truth(self):
        space = default_space()
        return space, tune(
            space,
            objective="epoch_time",
            driver="exhaustive",
            budget=len(space),
            session=Session(),
        )

    @pytest.fixture(scope="class")
    def tuned(self, truth):
        space, _ = truth
        session = Session()
        return session, tune(
            space, objective="epoch_time", budget=64, session=session
        )

    def test_best_matches_exhaustive_optimum(self, truth, tuned):
        _, exhaustive = truth
        _, result = tuned
        assert result.best.epoch_time == pytest.approx(
            exhaustive.best.epoch_time, rel=1e-12
        )

    def test_simulates_fewer_cells_than_grid(self, truth, tuned):
        space, _ = truth
        session, result = tuned
        # Session counters (and the evaluator's) prove the saving.
        assert session.stats.runs == result.session_stats["runs"]
        assert session.stats.runs <= 64 < len(space)
        assert result.evaluator_stats["simulations"] < len(space)
        # Estimates covered the whole grid; simulations did not.
        assert result.evaluator_stats["estimates"] == len(space)

    def test_profile_cache_amortised_across_strategies(self, tuned):
        session, _ = tuned
        # Many strategies share each cell's profile; hits must dominate.
        assert session.stats.profile_hits > session.stats.profile_builds

    def test_frontier_is_consistent_and_contains_best(self, tuned):
        _, result = tuned
        best_key = result.best.point.key()
        assert best_key in {m.point.key() for m in result.frontier}
        for kept in result.frontier:
            assert not any(dominates(other, kept) for other in result.measurements)

    def test_json_export_carries_counters(self, tuned):
        _, result = tuned
        payload = result.to_dict()
        assert payload["session_stats"]["runs"] > 0
        assert payload["space"]["size"] == 96
        assert payload["frontier"]
        assert payload["best"]["epoch_time_s"] == result.best.epoch_time


class TestSessionTune:
    def test_tune_on_a_session_reuses_caches(self):
        session = Session()
        space = TuneSpace(
            strategies=("TR", "TR+DPU+AHD"), batch_sizes=(128,), gpu_counts=(2,)
        )
        first = tune(space, budget=2, session=session, simulated_steps=4)
        runs_after_first = session.stats.runs
        second = tune(space, budget=2, session=session, simulated_steps=4)
        # Same cells, same session: the second search re-simulates nothing new
        # beyond what its own evaluator memo missed (executor cache is warm).
        assert second.best.point.key() == first.best.point.key()
        assert session.stats.executor_hits > 0
        assert session.stats.runs <= runs_after_first * 2

    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            tune(default_space(), budget=0)

    def test_tune_records_its_span_and_counter_by_driver_name(self):
        space = TuneSpace(strategies=("TR",), batch_sizes=(128,), gpu_counts=(2,))
        with SpanRecorder() as recorder:
            tune(space, driver="exhaustive", budget=1, simulated_steps=4)
            tunes = get_registry().get("repro_session_tunes_total")
            before = tunes.value(driver="exhaustive")
            # A driver object counts under its registered name, as a name does.
            tune(space, driver=DRIVERS.get("exhaustive"), budget=1, simulated_steps=4)
        assert tunes.value(driver="exhaustive") == before + 1
        roots = [s for s in recorder.roots() if s.name == "session.tune"]
        assert [s.tags for s in roots] == [{"driver": "exhaustive", "budget": 1}] * 2


class TestObjectives:
    def test_cost_objective_prefers_cheap_hardware(self):
        space = TuneSpace(
            strategies=("TR+DPU+AHD",),
            batch_sizes=(256,),
            gpu_counts=(2, 4),
            servers=("a6000", "2080ti"),
        )
        result = tune(space, objective="cost", driver="exhaustive",
                      budget=len(space), simulated_steps=4, session=Session())
        costs = [m.cost for m in result.measurements]
        assert result.best.cost == min(costs)

    def test_deadline_excludes_slow_candidates(self):
        space = TuneSpace(
            strategies=("DP", "TR+DPU+AHD"),
            batch_sizes=(128,),
            gpu_counts=(2,),
        )
        unconstrained = tune(space, objective="cost", driver="exhaustive",
                             budget=len(space), simulated_steps=4, session=Session())
        deadline = unconstrained.best.epoch_time + 1.0  # only the fast one fits
        slow = max(unconstrained.measurements, key=lambda m: m.epoch_time)
        assert slow.epoch_time > deadline
        constrained = tune(
            space,
            objective=MinCostUnderDeadline(deadline=deadline),
            driver="exhaustive",
            budget=len(space),
            simulated_steps=4,
            session=Session(),
        )
        assert constrained.best.epoch_time <= deadline

    def test_throughput_objective_needs_policies_axis(self):
        with pytest.raises(ConfigurationError, match="policies"):
            tune(default_space(), objective="jobs_per_hour", budget=4)

    @pytest.mark.parametrize("deadline", [0.0, -1.0, math.nan])
    def test_deadline_must_be_positive(self, deadline):
        # A NaN deadline used to pass a ``<= 0`` guard and then admit every
        # candidate, since no epoch time compares greater than NaN.
        with pytest.raises(ConfigurationError, match="deadline must be > 0"):
            MinCostUnderDeadline(deadline=deadline)
        assert MinCostUnderDeadline().deadline == math.inf

    def test_impossible_deadline_fails_loudly(self):
        space = TuneSpace(strategies=("DP",), batch_sizes=(128,), gpu_counts=(2,))
        with pytest.raises(ConfigurationError, match="feasible"):
            tune(
                space,
                objective=MinCostUnderDeadline(deadline=1e-6),
                driver="exhaustive",
                budget=1,
                simulated_steps=4,
                session=Session(),
            )

    def test_halving_finds_throughput_optimum_across_gang_sizes(self):
        """Small gangs pack more jobs per node; a pure epoch-time proxy would
        prune them and systematically miss the throughput optimum."""
        space = TuneSpace(
            strategies=("TR",),
            batch_sizes=(128,),
            gpu_counts=(2, 4),
            policies=("fifo", "best-fit", "sjf"),
        )
        truth = tune(
            space, objective="jobs_per_hour", driver="exhaustive",
            budget=len(space), simulated_steps=4, throughput_jobs=8,
            session=Session(),
        )
        halved = tune(
            space, objective="jobs_per_hour", driver="successive-halving",
            budget=3, simulated_steps=6, throughput_jobs=8, session=Session(),
        )
        assert halved.best.jobs_per_hour == pytest.approx(
            truth.best.jobs_per_hour, rel=0.05
        )
        assert halved.best.point.num_gpus == truth.best.point.num_gpus

    def test_same_named_cluster_candidates_rejected(self):
        from repro.cluster.spec import cluster_from_shorthand

        with pytest.raises(ConfigurationError, match="distinct names"):
            TuneSpace(
                strategies=("TR",),
                batch_sizes=(128,),
                gpu_counts=(2,),
                policies=("fifo",),
                clusters=(
                    cluster_from_shorthand("a6000:4"),
                    cluster_from_shorthand("a6000:4,a6000:4"),
                ),
            )

    def test_cluster_candidates_probe_their_own_fleet(self):
        """Throughput memoisation must key on the fleet's shape, not its
        name: a twice-as-large fleet doubles saturated throughput."""
        from repro.cluster.spec import cluster_from_shorthand

        evaluator = TuneEvaluator(session=Session(), simulated_steps=4,
                                  throughput_jobs=8)
        small = cluster_from_shorthand("a6000:4", name="small")
        large = cluster_from_shorthand("a6000:4,a6000:4", name="large")
        base = dict(task="nas", dataset="cifar10", server="a6000",
                    num_gpus=4, batch_size=128, strategy="TR", policy="fifo")
        small_jph = evaluator.throughput(TunePoint(**base, cluster=small))
        large_jph = evaluator.throughput(TunePoint(**base, cluster=large))
        assert large_jph == pytest.approx(2 * small_jph, rel=1e-6)

    def test_throughput_objective_end_to_end(self):
        space = TuneSpace(
            strategies=("TR", "TR+DPU+AHD"),
            batch_sizes=(128,),
            gpu_counts=(2, 4),
            policies=("fifo", "best-fit"),
        )
        result = tune(
            space,
            objective="jobs_per_hour",
            driver="exhaustive",
            budget=len(space),
            simulated_steps=4,
            throughput_jobs=8,
            session=Session(),
        )
        assert result.best.jobs_per_hour is not None
        assert result.best.jobs_per_hour == max(
            m.jobs_per_hour for m in result.measurements
        )
        assert result.evaluator_stats["cluster_probes"] == len(space)


class TestEvaluatorIncrementality:
    def test_measure_is_memoised_per_fidelity(self):
        evaluator = TuneEvaluator(session=Session(), simulated_steps=6)
        point = TunePoint(
            task="nas", dataset="cifar10", server="a6000",
            num_gpus=2, batch_size=128, strategy="TR",
        )
        first = evaluator.measure(point)
        again = evaluator.measure(point)
        low = evaluator.measure(point, steps=4)
        assert first.epoch_time == again.epoch_time
        assert evaluator.stats.simulations == 2  # full + low fidelity
        assert evaluator.stats.simulation_hits == 1
        assert low.simulated_steps == 4

    def test_estimate_never_simulates(self):
        session = Session()
        evaluator = TuneEvaluator(session=session, simulated_steps=6)
        for strategy in ("DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD"):
            point = TunePoint(
                task="nas", dataset="cifar10", server="a6000",
                num_gpus=2, batch_size=128, strategy=strategy,
            )
            measurement = evaluator.estimate(point)
            assert measurement.fidelity == "estimate"
            assert measurement.epoch_time > 0
        assert session.stats.runs == 0
        assert evaluator.stats.estimates == 6

    def test_estimates_rank_like_simulations_on_default_cell(self):
        """The halving driver's rung-0 pruning is only safe if the analytic
        ranking broadly agrees with the simulator; check the winner agrees."""
        session = Session()
        evaluator = TuneEvaluator(session=session, simulated_steps=6)
        strategies = ("DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD")
        points = [
            TunePoint(
                task="nas", dataset="cifar10", server="a6000",
                num_gpus=4, batch_size=256, strategy=strategy,
            )
            for strategy in strategies
        ]
        estimated = min(points, key=lambda p: evaluator.estimate(p).epoch_time)
        simulated = min(points, key=lambda p: evaluator.measure(p).epoch_time)
        assert (
            evaluator.measure(estimated).epoch_time
            == evaluator.measure(simulated).epoch_time
        )


class TestBatchEstimation:
    def points(self):
        return [
            TunePoint(
                task="nas", dataset="cifar10", server="a6000",
                num_gpus=gpus, batch_size=batch, strategy=strategy,
            )
            for gpus in (2, 4)
            for batch in (128, 256)
            for strategy in ("DP", "TR", "TR+DPU+AHD")
        ]

    def test_estimate_all_matches_per_point_estimates(self):
        points = self.points()
        batch_eval = TuneEvaluator(session=Session(), simulated_steps=6)
        loop_eval = TuneEvaluator(session=Session(), simulated_steps=6)
        batched = batch_eval.estimate_all(points)
        for point in points:
            assert batched[point].epoch_time == loop_eval.estimate(point).epoch_time
        assert batch_eval.stats.estimates == len(points)

    def test_estimate_all_records_one_span_for_the_batch(self):
        from repro.obs.tracing import SpanRecorder

        points = self.points()
        evaluator = TuneEvaluator(session=Session(), simulated_steps=6)
        with SpanRecorder() as recorder:
            evaluator.estimate_all(points)
        estimate_spans = [
            s for s in recorder.spans() if s.name.startswith("tune.estimate")
        ]
        assert [s.name for s in estimate_spans] == ["tune.estimate_all"]
        assert estimate_spans[0].tags["count"] == len(points)
        assert estimate_spans[0].tags["misses"] == len(points)
        # A warm batch is all memo hits: no span at all.
        with SpanRecorder() as warm:
            evaluator.estimate_all(points)
        assert [s.name for s in warm.spans()] == []
        assert evaluator.stats.estimate_hits == len(points)


class TestGoodputUnderFaults:
    def space(self):
        from repro.tune.space import TuneSpace

        return TuneSpace(
            strategies=("TR", "TR+DPU+AHD"),
            batch_sizes=(128,),
            gpu_counts=(2,),
            policies=("fifo",),
        )

    def test_decoupled_strategy_wins_on_goodput(self):
        result = tune(
            self.space(),
            objective="goodput_under_faults",
            driver="exhaustive",
            budget=4,
            simulated_steps=4,
            faults="bursty-preemption",
            elastic="shrink",
        )
        assert result.objective_name == "goodput_under_faults"
        assert result.best.goodput is not None and result.best.goodput > 0
        # The decoupled strategy recovers at 1/gpus of the lost work, so it
        # never loses to plain TR on this fault scenario.
        assert result.best.point.strategy == "TR+DPU+AHD"

    def test_requires_a_policies_axis(self):
        from repro.tune.space import TuneSpace

        with pytest.raises(ConfigurationError, match="policies"):
            tune(
                TuneSpace(strategies=("TR",), batch_sizes=(128,), gpu_counts=(2,)),
                objective="goodput_under_faults",
                budget=2,
                simulated_steps=4,
            )

    def test_identical_fault_tune_hydrates_fully_from_store(self, tmp_path):
        store = str(tmp_path / "store")

        def run(session):
            return tune(
                self.space(),
                objective="goodput_under_faults",
                driver="exhaustive",
                budget=4,
                simulated_steps=4,
                session=session,
                faults="bursty-preemption",
                elastic="shrink",
                fault_seed=2,
            )

        cold_session = Session(store=store)
        cold = run(cold_session)
        assert cold_session.stats.runs > 0

        warm_session = Session(store=store)
        warm = run(warm_session)
        # Zero simulations on the replay: runs, estimates and fault probes
        # all hydrate from fault-spec-aware store records.
        assert warm_session.stats.runs == 0
        assert warm.best.goodput == cold.best.goodput

    def test_different_fault_seed_is_a_different_record(self, tmp_path):
        store = str(tmp_path / "store")
        first = Session(store=store)
        tune(
            self.space(),
            objective="goodput_under_faults",
            driver="exhaustive",
            budget=4,
            simulated_steps=4,
            session=first,
            elastic="shrink",
            fault_seed=0,
        )
        second = Session(store=store)
        evaluator_runs_before = second.stats.runs
        result = tune(
            self.space(),
            objective="goodput_under_faults",
            driver="exhaustive",
            budget=4,
            simulated_steps=4,
            session=second,
            elastic="shrink",
            fault_seed=1,
        )
        # Per-cell epoch times hydrate (they are fault-independent), but the
        # goodput probes are keyed by fault seed, so they re-run.
        assert second.stats.runs == evaluator_runs_before
        assert result.evaluator_stats["goodput_probes"] > 0
