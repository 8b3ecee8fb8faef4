"""Pluggable search drivers and their registry.

Covered by ``docs/TUNING.md`` (driver guide) and ``docs/API.md``.

A driver decides *which* candidates of a :class:`~repro.tune.space.TuneSpace`
to evaluate, and at what fidelity, under a simulation budget.  Drivers are
pluggable through :data:`DRIVERS` — a registry mirroring the strategy and
placement-policy registries — so a custom search plugs into ``repro.tune.tune``
and the CLI by name:

    from repro.tune.drivers import register_driver

    @register_driver
    class MySearch:
        name = "my-search"

        def search(self, space, objective, evaluator, *, budget, seed):
            ...return a DriverRun...

Three built-ins cover the classic trade-offs:

* ``"exhaustive"`` — simulate every candidate (ground truth, budget-capped),
* ``"random"`` — a seeded uniform sample of the grid,
* ``"successive-halving"`` — rank everything with free analytic estimates,
  simulate the survivors at low fidelity, then promote the best to full
  fidelity; finds the grid optimum while simulating far fewer cells.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Protocol, Tuple, runtime_checkable

from repro.errors import ConfigurationError
from repro.parallel.executor import MIN_SIMULATED_STEPS
from repro.registry import NamedRegistry, make_register
from repro.tune.evaluator import TuneEvaluator
from repro.tune.objective import TuneMeasurement
from repro.tune.space import TuneSpace

@dataclass
class DriverRun:
    """What a driver hands back: full-fidelity evaluations plus telemetry.

    Example:
        >>> from repro.tune.drivers import DriverRun
        >>> DriverRun(evaluated=(), trajectory=(), notes={"truncated": False}).notes
        {'truncated': False}
    """

    evaluated: Tuple[TuneMeasurement, ...]
    trajectory: Tuple[dict, ...] = ()
    notes: dict = field(default_factory=dict)


@runtime_checkable
class SearchDriver(Protocol):
    """A pluggable tuning search.

    ``search`` receives the space, the (resolved) objective, a
    :class:`~repro.tune.evaluator.TuneEvaluator` and a simulation budget;
    it returns a :class:`DriverRun` whose ``evaluated`` measurements are all
    full-fidelity (estimates never leave the driver).
    """

    name: str

    def search(
        self,
        space: TuneSpace,
        objective,
        evaluator: TuneEvaluator,
        *,
        budget: int,
        seed: int,
    ) -> DriverRun:
        """Explore the space and return the evaluated candidates."""
        ...


class DriverRegistry(NamedRegistry[SearchDriver]):
    """Ordered name -> :class:`SearchDriver` mapping with validation."""

    kind = "search driver"
    kind_plural = "drivers"

    def validate(self, name: str, driver: SearchDriver) -> None:
        if not callable(getattr(driver, "search", None)):
            raise ConfigurationError(f"driver {name!r} must expose a callable 'search'")


#: The process-wide search-driver registry.
DRIVERS = DriverRegistry()

#: Register a driver class or instance (usable as a decorator); see
#: :func:`repro.registry.make_register`.
register_driver = make_register(DRIVERS)


def _evaluate_all(
    points,
    objective,
    evaluator: TuneEvaluator,
) -> Tuple[Tuple[TuneMeasurement, ...], Tuple[dict, ...]]:
    """Fully evaluate candidates in order, tracking best-so-far convergence."""
    measurements: List[TuneMeasurement] = []
    trajectory: List[dict] = []
    best_key = None
    for point in points:
        measurement = evaluator.evaluate(point, objective)
        measurements.append(measurement)
        key = objective.key(measurement)
        if best_key is None or key < best_key:
            best_key = key
            trajectory.append(
                {
                    "simulations": evaluator.stats.simulations,
                    "best_score": objective.score(measurement),
                    "best_label": point.label(),
                }
            )
    return tuple(measurements), tuple(trajectory)


# ---------------------------------------------------------------------- #
# Built-in drivers
# ---------------------------------------------------------------------- #
@register_driver
class ExhaustiveSearch:
    """Simulate every candidate of the grid, in grid order (budget-capped).

    The ground truth the cheaper drivers are measured against.  If the grid
    exceeds the budget only the first ``budget`` candidates run and the run
    is flagged ``notes["truncated"] = True``.

    Example:
        >>> from repro.tune.drivers import DRIVERS
        >>> DRIVERS.get("exhaustive").name
        'exhaustive'
    """

    name = "exhaustive"

    def search(self, space, objective, evaluator, *, budget, seed) -> DriverRun:
        points = space.points()
        truncated = len(points) > budget
        evaluated, trajectory = _evaluate_all(points[:budget], objective, evaluator)
        return DriverRun(
            evaluated=evaluated,
            trajectory=trajectory,
            notes={"truncated": truncated, "grid_size": len(points)},
        )


@register_driver
class RandomSearch:
    """A seeded uniform sample of ``budget`` distinct candidates.

    Deterministic for a given seed: the same ``(space, budget, seed)`` always
    evaluates the same candidates in the same order.

    Example:
        >>> from repro.tune.drivers import DRIVERS
        >>> DRIVERS.get("random").name
        'random'
    """

    name = "random"

    def search(self, space, objective, evaluator, *, budget, seed) -> DriverRun:
        points = list(space.points())
        rng = random.Random(seed)
        if budget < len(points):
            points = rng.sample(points, budget)
        evaluated, trajectory = _evaluate_all(points, objective, evaluator)
        return DriverRun(
            evaluated=evaluated,
            trajectory=trajectory,
            notes={"grid_size": len(space), "sampled": len(points)},
        )


@register_driver
class SuccessiveHalving:
    """Estimate everything, simulate survivors, promote the best (eta=2).

    Three rungs of increasing fidelity:

    1. *Estimate* every candidate analytically (free — no discrete-event
       simulation) and rank by the objective's proxy key.
    2. Simulate the top ``budget - budget // (1 + eta)`` candidates at the
       minimum fidelity (``4`` steps) and re-rank on real simulations.
    3. Promote the top ``budget // (1 + eta)`` to full fidelity; these are
       the measurements the frontier and winner are drawn from.

    Total simulations never exceed ``budget``, and the number of *distinct
    cells* simulated is the rung-2 width — strictly less than the grid
    whenever the grid outgrows the budget.

    Example:
        >>> from repro.tune.drivers import DRIVERS
        >>> DRIVERS.get("successive-halving").eta
        2
    """

    name = "successive-halving"
    eta = 2

    def search(self, space, objective, evaluator, *, budget, seed) -> DriverRun:
        points = space.points()
        # Rung 0 goes through the batch entry point: one span + counter for
        # the whole grid, analytic plan scoring underneath.
        estimates = evaluator.estimate_all(points)
        ranked = sorted(points, key=lambda point: objective.proxy_key(estimates[point]))

        full_steps = evaluator.simulated_steps
        final_width = max(1, budget // (1 + self.eta))
        low_width = min(len(ranked), budget - final_width)
        final_width = min(final_width, low_width) if low_width else min(len(ranked), budget)

        if full_steps <= MIN_SIMULATED_STEPS or low_width <= final_width:
            # No fidelity gap (or budget too small to stage): single rung.
            survivors = ranked[: min(len(ranked), budget)]
            evaluated, trajectory = _evaluate_all(survivors, objective, evaluator)
            return DriverRun(
                evaluated=evaluated,
                trajectory=trajectory,
                notes={
                    "grid_size": len(points),
                    "rungs": [{"fidelity": full_steps, "width": len(survivors)}],
                },
            )

        # Fleet objectives probe the cluster at low fidelity too: the probe
        # rides the shared epoch-time memo, and only a real jobs/hour number
        # can rank placement policies against each other.
        needs_cluster = getattr(objective, "needs_cluster", False)
        rung_low = {
            point: (
                evaluator.evaluate(point, objective, steps=MIN_SIMULATED_STEPS)
                if needs_cluster
                else evaluator.measure(point, steps=MIN_SIMULATED_STEPS)
            )
            for point in ranked[:low_width]
        }
        rank_key = objective.key if needs_cluster else objective.proxy_key
        promoted = sorted(rung_low, key=lambda point: rank_key(rung_low[point]))
        promoted = promoted[:final_width]
        evaluated, trajectory = _evaluate_all(promoted, objective, evaluator)
        return DriverRun(
            evaluated=evaluated,
            trajectory=trajectory,
            notes={
                "grid_size": len(points),
                "rungs": [
                    {"fidelity": 0, "width": len(points)},
                    {"fidelity": MIN_SIMULATED_STEPS, "width": low_width},
                    {"fidelity": full_steps, "width": len(promoted)},
                ],
            },
        )
