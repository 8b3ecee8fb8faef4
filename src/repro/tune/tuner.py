"""The :func:`tune` orchestrator tying space, driver, objective and evaluator.

Covered by ``docs/TUNING.md`` (worked examples) and ``docs/API.md``.

``tune(...)`` is the function behind the ``python -m repro tune``
subcommand and the ``/v1/tune`` endpoint: it resolves the objective and
driver by name, runs the search against a session-backed evaluator, and
packages the winner, the Pareto frontier and every cache counter into a
:class:`~repro.tune.result.TuneResult`.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from repro.core.session import Session
from repro.errors import ConfigurationError
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.tune.drivers import DRIVERS, SearchDriver
from repro.tune.evaluator import TuneEvaluator
from repro.tune.objective import resolve_objective
from repro.tune.result import TuneResult, pareto_frontier
from repro.tune.space import TuneSpace, default_space


def tune(
    space: Optional[TuneSpace] = None,
    *,
    objective: Union[str, object] = "epoch_time",
    driver: Union[str, SearchDriver] = "successive-halving",
    budget: int = 64,
    seed: int = 0,
    session: Optional[Session] = None,
    simulated_steps: int = 10,
    throughput_jobs: int = 12,
    faults=None,
    elastic: str = "restart",
    fault_seed: int = 0,
    tenants=None,
    price_curve=None,
    slo_deadline_slack: float = 900.0,
) -> TuneResult:
    """Search a tuning space for the best candidate under an objective.

    ``budget`` bounds the number of discrete-event simulations a driver may
    spend; analytic estimates are free.  The returned result carries the
    evaluator's and session's counters so callers can verify how much of the
    grid was actually simulated.  Pass ``session=`` to share its caches
    (pairs, profiles, executors, store) with prior runs and sweeps, so
    refinement rounds only re-simulate changed cells.

    ``faults`` / ``elastic`` / ``fault_seed`` configure the fault scenario
    the ``goodput_under_faults`` objective injects into its fleet probes
    (a :class:`~repro.cluster.faults.FaultModel`, a
    :class:`~repro.cluster.faults.FaultTrace`, a CLI-style spec string or
    ``None`` for the ``bursty-preemption`` preset); other objectives
    ignore them.  ``tenants`` / ``price_curve`` / ``slo_deadline_slack``
    likewise configure the contended fleet the ``deadline_hit_rate`` and
    ``cost_per_job`` objectives probe (tenant specs or a shorthand string,
    a :class:`~repro.cluster.market.PriceCurve` or preset/spec string,
    and the deadline slack in seconds).

    Example:
        >>> from repro.tune import TuneSpace, tune
        >>> space = TuneSpace(strategies=("DP", "TR", "TR+DPU+AHD"),
        ...                   batch_sizes=(128, 256), gpu_counts=(2, 4))
        >>> result = tune(space, objective="epoch_time", budget=6,
        ...               simulated_steps=4)
        >>> result.best.epoch_time <= result.frontier[-1].epoch_time
        True
    """
    driver_name = driver if isinstance(driver, str) else driver.name
    get_registry().counter("repro_session_tunes_total", "tune searches").inc(driver=driver_name)
    with span("session.tune", driver=driver_name, budget=budget):
        if budget < 1:
            raise ConfigurationError("tuning budget must be >= 1 simulation")
        space = space if space is not None else default_space()
        resolved_objective = resolve_objective(objective)
        resolved_driver = DRIVERS.get(driver) if isinstance(driver, str) else driver
        if resolved_objective.needs_cluster and not space.has_cluster_axes:
            raise ConfigurationError(
                f"objective {resolved_objective.name!r} needs a fleet; give the tune "
                "space a policies axis (and optionally cluster candidates)"
            )

        evaluator = TuneEvaluator(
            session=session,
            simulated_steps=simulated_steps,
            throughput_jobs=throughput_jobs,
            faults=faults,
            elastic=elastic,
            fault_seed=fault_seed,
            tenants=tenants,
            price_curve=price_curve,
            slo_deadline_slack=slo_deadline_slack,
        )
        run = resolved_driver.search(
            space, resolved_objective, evaluator, budget=budget, seed=seed
        )
        if not run.evaluated:
            raise ConfigurationError(
                f"driver {resolved_driver.name!r} evaluated no candidates"
            )
        best = min(run.evaluated, key=resolved_objective.key)
        if math.isinf(resolved_objective.key(best)):
            raise ConfigurationError(
                f"no evaluated candidate is feasible under objective "
                f"{resolved_objective.name!r} (every candidate scored infinite — "
                "e.g. a deadline no configuration can meet); relax the constraint "
                "or widen the space"
            )
        return TuneResult(
            objective_name=resolved_objective.name,
            objective_sense=resolved_objective.sense,
            driver=resolved_driver.name,
            budget=budget,
            space_summary=space.to_dict(),
            best=best,
            measurements=run.evaluated,
            frontier=pareto_frontier(run.evaluated),
            trajectory=run.trajectory,
            notes=run.notes,
            evaluator_stats=evaluator.stats.to_dict(),
            session_stats=evaluator.session.stats.to_dict(),
        )
